type pattern = { ps : int option; pp : int option; po : int option }

type change = { added : bool; cs : int; cp : int; co : int }

(* The change log is bounded: consumers that fall behind by more than
   [log_max] effective changes rebuild from scratch instead of replaying. *)
let log_max = 4096

type t = {
  mutable schema : Rdf.Schema.t;
  dict : Rdf.Dictionary.t;
  col_s : Intvec.t;
  col_p : Intvec.t;
  col_o : Intvec.t;
  idx_s : (int, Intvec.t) Hashtbl.t;
  idx_p : (int, Intvec.t) Hashtbl.t;
  idx_o : (int, Intvec.t) Hashtbl.t;
  idx_sp : (int, Intvec.t) Hashtbl.t;
  idx_po : (int, Intvec.t) Hashtbl.t;
  idx_so : (int, Intvec.t) Hashtbl.t;
  (* per triple id, its position in each of its six postings: a delete
     finds the entries it must move without scanning *)
  pos_s : Intvec.t;
  pos_p : Intvec.t;
  pos_o : Intvec.t;
  pos_sp : Intvec.t;
  pos_po : Intvec.t;
  pos_so : Intvec.t;
  ids : (int * int * int, int) Hashtbl.t;  (* triple -> id, duplicate guard *)
  mutable schema_version : int;  (* effective RDFS-constraint changes *)
  mutable data_version : int;    (* effective fact inserts + deletes *)
  log : change Queue.t;          (* the last <= log_max effective changes *)
  mutable log_base : int;        (* data_version at the head of [log] *)
}

(* Process-level mutation counters (lib/metrics); effective changes only,
   mirroring the version bumps. *)
let m_inserts = Metrics.counter "store.inserts" ~help:"Effective fact inserts"
let m_deletes = Metrics.counter "store.deletes" ~help:"Effective fact deletes"
let m_schema_changes =
  Metrics.counter "store.schema_changes"
    ~help:"Effective RDFS-constraint additions and retractions"

(* Pair keys are packed into one 62-bit integer; codes stay far below 2^31
   at the scales this library targets. *)
let pack a b =
  assert (a < 0x4000_0000 && b < 0x4000_0000);
  (a lsl 31) lor b

let create schema =
  {
    schema;
    dict = Rdf.Dictionary.create ();
    col_s = Intvec.create ~capacity:1024 ();
    col_p = Intvec.create ~capacity:1024 ();
    col_o = Intvec.create ~capacity:1024 ();
    idx_s = Hashtbl.create 1024;
    idx_p = Hashtbl.create 64;
    idx_o = Hashtbl.create 1024;
    idx_sp = Hashtbl.create 1024;
    idx_po = Hashtbl.create 1024;
    idx_so = Hashtbl.create 1024;
    pos_s = Intvec.create ~capacity:1024 ();
    pos_p = Intvec.create ~capacity:1024 ();
    pos_o = Intvec.create ~capacity:1024 ();
    pos_sp = Intvec.create ~capacity:1024 ();
    pos_po = Intvec.create ~capacity:1024 ();
    pos_so = Intvec.create ~capacity:1024 ();
    ids = Hashtbl.create 1024;
    schema_version = 0;
    data_version = 0;
    log = Queue.create ();
    log_base = 0;
  }

let schema t = t.schema
let dictionary t = t.dict
let size t = Intvec.length t.col_s
let schema_version t = t.schema_version
let data_version t = t.data_version
let version t = t.schema_version + t.data_version

let log_change t added s p o =
  Queue.add { added; cs = s; cp = p; co = o } t.log;
  if Queue.length t.log > log_max then begin
    ignore (Queue.pop t.log);
    t.log_base <- t.log_base + 1
  end

let changes_since t ~since =
  if since < t.log_base || since > t.data_version then None
  else begin
    let out = ref [] in
    let i = ref t.log_base in
    Queue.iter
      (fun c ->
        if !i >= since then out := c :: !out;
        incr i)
      t.log;
    Some (List.rev !out)
  end

(* Appends [id] to the posting of [key], recording its position. *)
let add_to_posting tbl pos key id =
  let v =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = Intvec.create ~capacity:4 () in
        Hashtbl.add tbl key v;
        v
  in
  Intvec.push pos (Intvec.length v);
  Intvec.push v id

let insert_code t s p o =
  if not (Hashtbl.mem t.ids (s, p, o)) then begin
    t.data_version <- t.data_version + 1;
    Metrics.add m_inserts 1;
    log_change t true s p o;
    let id = size t in
    Hashtbl.add t.ids (s, p, o) id;
    Intvec.push t.col_s s;
    Intvec.push t.col_p p;
    Intvec.push t.col_o o;
    add_to_posting t.idx_s t.pos_s s id;
    add_to_posting t.idx_p t.pos_p p id;
    add_to_posting t.idx_o t.pos_o o id;
    add_to_posting t.idx_sp t.pos_sp (pack s p) id;
    add_to_posting t.idx_po t.pos_po (pack p o) id;
    add_to_posting t.idx_so t.pos_so (pack s o) id
  end

let insert t (tr : Rdf.Triple.t) =
  if Rdf.Triple.is_schema_constraint tr then
    invalid_arg
      ("Encoded_store.insert: constraint triple: " ^ Rdf.Triple.to_string tr);
  let enc = Rdf.Dictionary.encode t.dict in
  insert_code t (enc tr.subj) (enc tr.pred) (enc tr.obj)

(* ---- deletion: swap-remove on the columns and the six postings ---- *)

(* Swap-remove of [id] from the posting of [key]: the posting's last
   entry takes [id]'s slot, and its recorded position follows it. *)
let remove_from_posting tbl pos key id =
  let v = Hashtbl.find tbl key in
  let i = Intvec.get pos id in
  let moved = Intvec.pop v in
  if moved <> id then begin
    Intvec.set v i moved;
    Intvec.set pos moved i
  end;
  if Intvec.length v = 0 then Hashtbl.remove tbl key

(* Renames the entry [from] of the posting of [key] to [to_], in place. *)
let relabel_in_posting tbl pos key ~from ~to_ =
  let i = Intvec.get pos from in
  Intvec.set (Hashtbl.find tbl key) i to_;
  Intvec.set pos to_ i

let delete_code t s p o =
  match Hashtbl.find_opt t.ids (s, p, o) with
  | None -> false
  | Some id ->
      t.data_version <- t.data_version + 1;
      Metrics.add m_deletes 1;
      log_change t false s p o;
      let last = size t - 1 in
      Hashtbl.remove t.ids (s, p, o);
      remove_from_posting t.idx_s t.pos_s s id;
      remove_from_posting t.idx_p t.pos_p p id;
      remove_from_posting t.idx_o t.pos_o o id;
      remove_from_posting t.idx_sp t.pos_sp (pack s p) id;
      remove_from_posting t.idx_po t.pos_po (pack p o) id;
      remove_from_posting t.idx_so t.pos_so (pack s o) id;
      if id <> last then begin
        (* move the last triple into the vacated slot: posting entries,
           their positions, the ids table and the column cells all
           re-label [last] as [id] *)
        let ls = Intvec.get t.col_s last
        and lp = Intvec.get t.col_p last
        and lo = Intvec.get t.col_o last in
        relabel_in_posting t.idx_s t.pos_s ls ~from:last ~to_:id;
        relabel_in_posting t.idx_p t.pos_p lp ~from:last ~to_:id;
        relabel_in_posting t.idx_o t.pos_o lo ~from:last ~to_:id;
        relabel_in_posting t.idx_sp t.pos_sp (pack ls lp) ~from:last ~to_:id;
        relabel_in_posting t.idx_po t.pos_po (pack lp lo) ~from:last ~to_:id;
        relabel_in_posting t.idx_so t.pos_so (pack ls lo) ~from:last ~to_:id;
        Hashtbl.replace t.ids (ls, lp, lo) id;
        Intvec.set t.col_s id ls;
        Intvec.set t.col_p id lp;
        Intvec.set t.col_o id lo
      end;
      List.iter
        (fun v -> ignore (Intvec.pop v))
        [
          t.col_s;
          t.col_p;
          t.col_o;
          t.pos_s;
          t.pos_p;
          t.pos_o;
          t.pos_sp;
          t.pos_po;
          t.pos_so;
        ];
      true

let delete t (tr : Rdf.Triple.t) =
  if Rdf.Triple.is_schema_constraint tr then
    invalid_arg
      ("Encoded_store.delete: constraint triple: " ^ Rdf.Triple.to_string tr);
  (* probe, never encode: deleting an unknown term must not grow the
     dictionary *)
  match
    ( Rdf.Dictionary.find t.dict tr.subj,
      Rdf.Dictionary.find t.dict tr.pred,
      Rdf.Dictionary.find t.dict tr.obj )
  with
  | Some s, Some p, Some o -> delete_code t s p o
  | _ -> false

(* ---- triple-level mutation API: constraints go to the schema ---- *)

let constr_declared schema c = List.mem c (Rdf.Schema.constraints schema)

let insert_triples t triples =
  let schema_changes = ref 0 and data_changes = ref 0 in
  List.iter
    (fun (tr : Rdf.Triple.t) ->
      match Rdf.Schema.constr_of_triple tr with
      | Some c ->
          if not (constr_declared t.schema c) then begin
            t.schema <- Rdf.Schema.add c t.schema;
            t.schema_version <- t.schema_version + 1;
            Metrics.add m_schema_changes 1;
            incr schema_changes
          end
      | None ->
          let before = t.data_version in
          insert t tr;
          if t.data_version <> before then incr data_changes)
    triples;
  (!schema_changes, !data_changes)

let delete_triples t triples =
  let schema_changes = ref 0 and data_changes = ref 0 in
  List.iter
    (fun (tr : Rdf.Triple.t) ->
      match Rdf.Schema.constr_of_triple tr with
      | Some c ->
          if constr_declared t.schema c then begin
            t.schema <-
              Rdf.Schema.of_constraints
                (List.filter
                   (fun c' -> c' <> c)
                   (Rdf.Schema.constraints t.schema));
            t.schema_version <- t.schema_version + 1;
            Metrics.add m_schema_changes 1;
            incr schema_changes
          end
      | None -> if delete t tr then incr data_changes)
    triples;
  (!schema_changes, !data_changes)

let of_graph g =
  let t = create (Rdf.Graph.schema g) in
  Rdf.Triple.Set.iter (insert t) (Rdf.Graph.facts g);
  t

let encode_term t term = Rdf.Dictionary.find t.dict term

let subject t i = Intvec.get t.col_s i
let property t i = Intvec.get t.col_p i
let obj t i = Intvec.get t.col_o i

let unsafe_subject t i = Intvec.unsafe_get t.col_s i
let unsafe_property t i = Intvec.unsafe_get t.col_p i
let unsafe_obj t i = Intvec.unsafe_get t.col_o i

let empty_vec = Intvec.create ~capacity:1 ()

let find_or_empty tbl key =
  match Hashtbl.find_opt tbl key with Some v -> v | None -> empty_vec

let all_ids t =
  let v = Intvec.create ~capacity:(max 1 (size t)) () in
  for i = 0 to size t - 1 do
    Intvec.push v i
  done;
  v

let matching t pat =
  match (pat.ps, pat.pp, pat.po) with
  | None, None, None -> all_ids t
  | Some s, None, None -> find_or_empty t.idx_s s
  | None, Some p, None -> find_or_empty t.idx_p p
  | None, None, Some o -> find_or_empty t.idx_o o
  | Some s, Some p, None -> find_or_empty t.idx_sp (pack s p)
  | None, Some p, Some o -> find_or_empty t.idx_po (pack p o)
  | Some s, None, Some o -> find_or_empty t.idx_so (pack s o)
  | Some s, Some p, Some o -> (
      match Hashtbl.find_opt t.ids (s, p, o) with
      | Some id -> Intvec.of_array [| id |]
      | None -> empty_vec)

(* Sentinel-coded access paths: positions carry codes, [-1] is a wildcard.
   These never materialize an id vector — the all-wildcard and fully-bound
   shapes, which [matching] must allocate for, are described symbolically —
   and never allocate an option or a pattern record, so the executor's
   index-nested-loop probe pays exactly one index lookup per access. *)

type selection = Miss | Hit of int | Ids of Intvec.t | All of int

let select t ~s ~p ~o =
  if s >= 0 then
    if p >= 0 then
      if o >= 0 then (
        match Hashtbl.find_opt t.ids (s, p, o) with
        | Some id -> Hit id
        | None -> Miss)
      else Ids (find_or_empty t.idx_sp (pack s p))
    else if o >= 0 then Ids (find_or_empty t.idx_so (pack s o))
    else Ids (find_or_empty t.idx_s s)
  else if p >= 0 then
    if o >= 0 then Ids (find_or_empty t.idx_po (pack p o))
    else Ids (find_or_empty t.idx_p p)
  else if o >= 0 then Ids (find_or_empty t.idx_o o)
  else All (size t)

let selected_count = function
  | Miss -> 0
  | Hit _ -> 1
  | Ids v -> Intvec.length v
  | All n -> n

let count_codes t ~s ~p ~o = selected_count (select t ~s ~p ~o)

let count t pat =
  match (pat.ps, pat.pp, pat.po) with
  | None, None, None -> size t
  | Some _, Some _, Some _ ->
      (match (pat.ps, pat.pp, pat.po) with
      | Some s, Some p, Some o -> if Hashtbl.mem t.ids (s, p, o) then 1 else 0
      | _ -> assert false)
  | _ -> Intvec.length (matching t pat)

let mem_code t s p o = Hashtbl.mem t.ids (s, p, o)

let decode_triple t i =
  let d = Rdf.Dictionary.decode t.dict in
  Rdf.Triple.make (d (subject t i)) (d (property t i)) (d (obj t i))

let to_graph t =
  let facts = ref [] in
  for i = size t - 1 downto 0 do
    facts := decode_triple t i :: !facts
  done;
  Rdf.Graph.make t.schema !facts

(* Code-level saturation: the schema closure is translated to codes once,
   then each stored triple contributes its entailments directly, sharing
   the dictionary with the source store.  A single pass reaches the
   fixpoint because {!Rdf.Schema} precloses the constraint graph (same
   argument as {!Rdf.Saturation}). *)
let saturate t =
  let t' =
    {
      (create t.schema) with
      dict = t.dict;
    }
  in
  let enc term = Rdf.Dictionary.encode t.dict term in
  let type_code = enc Rdf.Vocab.rdf_type in
  let codes_of set = List.map enc (Rdf.Term.Set.elements set) in
  let supers_of_class = Hashtbl.create 64 in
  Rdf.Term.Set.iter
    (fun c ->
      Hashtbl.replace supers_of_class (enc c)
        (codes_of (Rdf.Schema.super_classes t.schema c)))
    (Rdf.Schema.classes t.schema);
  let prop_rules = Hashtbl.create 64 in
  Rdf.Term.Set.iter
    (fun p ->
      Hashtbl.replace prop_rules (enc p)
        ( codes_of (Rdf.Schema.super_properties t.schema p),
          codes_of (Rdf.Schema.domains t.schema p),
          codes_of (Rdf.Schema.ranges t.schema p) ))
    (Rdf.Schema.properties t.schema);
  let lookup tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  for i = 0 to size t - 1 do
    let s = subject t i and p = property t i and o = obj t i in
    insert_code t' s p o;
    if p = type_code then
      List.iter (fun c -> insert_code t' s type_code c)
        (lookup supers_of_class o)
    else
      match Hashtbl.find_opt prop_rules p with
      | None -> ()
      | Some (supers, domains, ranges) ->
          List.iter (fun p' -> insert_code t' s p' o) supers;
          List.iter (fun c -> insert_code t' s type_code c) domains;
          List.iter (fun c -> insert_code t' o type_code c) ranges
  done;
  t'

(* ---- process-level metrics ---- *)

(* Words per element follow the block layout (one header word per block):
   the three columns and six position vectors hold one slot per triple, a
   hash table holds at least its 1024 initial bucket slots and about one
   per key, a bucket cell is 4 words, an [Intvec] record 3 plus its
   array's header; vectors hold their initial capacity (4 for a posting)
   or, once doubling has run, about 4/3 of a slot per element. *)
let approx_bytes t =
  let n = size t in
  let buckets keys = max 1024 keys in
  let index tbl =
    let keys = Hashtbl.length tbl in
    buckets keys + (8 * keys) + max (4 * keys) (4 * n / 3)
  in
  let words =
    (9 * max 1024 (4 * n / 3))
    + index t.idx_s + index t.idx_p + index t.idx_o
    + index t.idx_sp + index t.idx_po + index t.idx_so
    + buckets n + (8 * n)
    + (8 * Queue.length t.log)
  in
  (words * (Sys.word_size / 8)) + Rdf.Dictionary.approx_bytes t.dict

(* Samplers read counters only: a scrape costs the same on any store, and
   no write refreshes a gauge. *)
let publish_metrics t =
  let sampled name help f =
    Metrics.sample ~help name (fun () -> float_of_int (f t))
  in
  sampled "store.triples" "Stored fact triples" size;
  sampled "store.data_version" "Effective fact inserts + deletes" data_version;
  sampled "store.schema_version" "Effective RDFS-constraint changes"
    schema_version;
  sampled "store.bytes" "Estimated heap bytes of the store" approx_bytes
