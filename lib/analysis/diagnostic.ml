type severity = Info | Warning | Error

type t = {
  severity : severity;
  code : string;
  context : string;
  message : string;
}

let make severity ~code ~context message = { severity; code; context; message }
let error ~code ~context message = make Error ~code ~context message
let warning ~code ~context message = make Warning ~code ~context message
let info ~code ~context message = make Info ~code ~context message

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds
let errors ds = List.filter is_error ds

let to_string d =
  Printf.sprintf "%s[%s] %s: %s"
    (severity_to_string d.severity)
    d.code d.context d.message

let render d =
  String.concat "\t"
    [ severity_to_string d.severity; d.code; d.context; d.message ]

let pp fmt d = Format.pp_print_string fmt (to_string d)

let summary ds =
  let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
  let ne = count Error and nw = count Warning and ni = count Info in
  if ne = 0 && nw = 0 && ni = 0 then "clean"
  else
    let part n what = if n = 1 then "1 " ^ what else Printf.sprintf "%d %ss" n what in
    String.concat ", "
      (List.filter
         (fun s -> s <> "")
         [
           (if ne > 0 then part ne "error" else "");
           (if nw > 0 then part nw "warning" else "");
           (if ni > 0 then part ni "info" else "");
         ])

(* One entry per code emitted anywhere in the analysis layer.  The table
   is the reference the DESIGN.md section and the mutation self-tests are
   written against; adding a code without describing it here fails a
   test. *)
let catalog =
  [
    ("QL001", "head term is a variable that does not occur in the body");
    ("QL002", "query body is a cartesian product (disconnected join graph)");
    ("QL003", "duplicate body atom (semantically inert under set semantics)");
    ("QL004", "property URI neither built-in nor declared by the RDFS schema");
    ("QL005", "class URI not declared by the RDFS schema");
    ("QL006", "literal in subject or property position never matches RDF data");
    ("QL007", "repeated variable in the head");
    ("QL008", "containment-redundant disjunct in a union");
    ("QL009", "atom outside the reformulation fragment supported by the rules");
    ("CV001", "empty cover");
    ("CV002", "empty fragment");
    ("CV003", "fragment atom index out of range");
    ("CV004", "body atom not covered by any fragment");
    ("CV005", "fragment included in another fragment");
    ("CV006", "fragment with an internal cartesian product");
    ("CV007", "fragment sharing no variable with the rest of the cover");
    ("PV001", "union members disagree on column arity");
    ("PV002", "fragment join has no shared key column (cartesian join)");
    ("PV003", "shared variable dropped from a cover-query head (lost join key)");
    ("PV004", "cover-query head differs from the Definition 3.4 head");
    ("PV005", "projected head term not available in the input schema");
    ("PV006", "duplicate column name in a join input schema");
    ("PV007", "operator width differs from its declared column schema");
    ("PV008", "plan fragments do not match the cover's fragments");
    ("RF001", "reformulation too large to verify statically (skipped)");
    ("RF002", "materialized view definition is not a sound rewrite of the keyed query fragment");
    ("RF003", "materialized view contents stale (version stamp behind the store) at execution");
    ("CB001", "static lower bound on operations exceeds the budget (provably fails)");
    ("CB002", "static upper bound on operations fits the budget (provably safe)");
    ("CB003", "static lower bound on materialized rows exceeds the profile ceiling");
    ("CB004", "static operation interval straddles the budget (outcome data-dependent)");
    ("CB009", "union term count provably exceeds the profile capacity");
  ]

let describe code = List.assoc_opt code catalog
