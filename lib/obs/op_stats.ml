type kind =
  | Index_scan
  | Cq
  | Union
  | Dedup
  | Hash_join
  | Bnl_join
  | Project
  | Result

type t = {
  kind : kind;
  label : string;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable index_probes : int;
  mutable hash_inserts : int;
  mutable hash_collisions : int;
  mutable work_units : int;
  mutable est_rows : float;
  mutable children_rev : t list;
}

let make ?(label = "") ?(est_rows = -1.0) kind =
  {
    kind;
    label;
    rows_in = 0;
    rows_out = 0;
    index_probes = 0;
    hash_inserts = 0;
    hash_collisions = 0;
    work_units = 0;
    est_rows;
    children_rev = [];
  }

let add_child parent child = parent.children_rev <- child :: parent.children_rev
let children t = List.rev t.children_rev

let kind_name = function
  | Index_scan -> "index_scan"
  | Cq -> "cq"
  | Union -> "union"
  | Dedup -> "dedup"
  | Hash_join -> "hash_join"
  | Bnl_join -> "bnl_join"
  | Project -> "project"
  | Result -> "result"

let display_name = function
  | Index_scan -> "IndexScan"
  | Cq -> "CQ"
  | Union -> "Union"
  | Dedup -> "Dedup"
  | Hash_join -> "HashJoin"
  | Bnl_join -> "BlockNestedLoopJoin"
  | Project -> "Project"
  | Result -> "Result"

let q_error t =
  if t.est_rows < 0.0 then None
  else
    Some (Trace.q_error ~est:t.est_rows ~actual:(float_of_int t.rows_out))

let fold f init t =
  let rec go acc ~path t =
    let acc = f acc ~path t in
    List.fold_left
      (fun (acc, i) c ->
        (go acc ~path:(Printf.sprintf "%s.%d" path i) c, i + 1))
      (acc, 0) (children t)
    |> fst
  in
  go init ~path:"0" t

let node_line t =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (display_name t.kind);
  if t.label <> "" then begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf t.label
  end;
  Buffer.add_string buf "  (";
  (if t.est_rows < 0.0 then Buffer.add_string buf "est=?"
   else Buffer.add_string buf (Printf.sprintf "est=%.0f" t.est_rows));
  Buffer.add_string buf (Printf.sprintf " actual=%d" t.rows_out);
  (match q_error t with
  | Some q -> Buffer.add_string buf (Printf.sprintf " q=%.2f" q)
  | None -> ());
  let opt name v =
    if v <> 0 then Buffer.add_string buf (Printf.sprintf " %s=%d" name v)
  in
  opt "in" t.rows_in;
  opt "probes" t.index_probes;
  opt "inserts" t.hash_inserts;
  opt "collisions" t.hash_collisions;
  opt "work" t.work_units;
  Buffer.add_char buf ')';
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 512 in
  let rec go prefix child_prefix t =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (node_line t);
    Buffer.add_char buf '\n';
    let cs = children t in
    let n = List.length cs in
    List.iteri
      (fun i c ->
        let last = i = n - 1 in
        go
          (child_prefix ^ if last then "└─ " else "├─ ")
          (child_prefix ^ if last then "   " else "│  ")
          c)
      cs
  in
  go "" "" t;
  Buffer.contents buf
