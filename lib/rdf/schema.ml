type constr =
  | Subclass of Term.t * Term.t
  | Subproperty of Term.t * Term.t
  | Domain of Term.t * Term.t
  | Range of Term.t * Term.t

(* Adjacency maps: node -> set of direct successors. *)
type adj = Term.Set.t Term.Map.t

type t = {
  declared : constr list;  (* insertion order *)
  subclass_up : adj;       (* c -> reflexive-transitive superclasses *)
  subclass_down : adj;     (* c -> reflexive-transitive subclasses *)
  subprop_up : adj;
  subprop_down : adj;
  domain_of : adj;         (* p -> closed domain classes *)
  range_of : adj;          (* p -> closed range classes *)
  classes : Term.Set.t;
  properties : Term.Set.t;
}

let adj_find m k =
  match Term.Map.find_opt k m with None -> Term.Set.empty | Some s -> s

let adj_add m k v = Term.Map.update k (function
  | None -> Some (Term.Set.singleton v)
  | Some s -> Some (Term.Set.add v s)) m

(* Reflexive-transitive closure of an adjacency relation restricted to the
   nodes appearing in it.  Handles cycles via a worklist fixpoint; schema
   graphs are small so the quadratic behaviour is irrelevant. *)
let reachability (direct : adj) (nodes : Term.Set.t) : adj =
  let step acc =
    Term.Set.fold
      (fun n (m, changed) ->
        let cur = adj_find m n in
        let next =
          Term.Set.fold
            (fun succ acc -> Term.Set.union acc (adj_find m succ))
            cur cur
        in
        if Term.Set.equal next cur then (m, changed)
        else (Term.Map.add n next m, true))
      nodes (acc, false)
  in
  let init =
    Term.Set.fold
      (fun n m -> Term.Map.add n (Term.Set.add n (adj_find direct n)) m)
      nodes Term.Map.empty
  in
  let rec fix m =
    let m', changed = step m in
    if changed then fix m' else m'
  in
  fix init

let invert (m : adj) : adj =
  Term.Map.fold
    (fun k s acc -> Term.Set.fold (fun v acc -> adj_add acc v k) s acc)
    m Term.Map.empty

let check_uri what t =
  if not (Term.is_uri t) then
    invalid_arg (Printf.sprintf "Schema: %s must be a URI: %s" what
                   (Term.to_string t))

let check_constr = function
  | Subclass (a, b) -> check_uri "class" a; check_uri "class" b
  | Subproperty (a, b) -> check_uri "property" a; check_uri "property" b
  | Domain (p, c) | Range (p, c) ->
      check_uri "property" p; check_uri "class" c

let of_constraints declared =
  List.iter check_constr declared;
  let classes, properties, sc, sp, dom, rng =
    List.fold_left
      (fun (cs, ps, sc, sp, dom, rng) c ->
        match c with
        | Subclass (a, b) ->
            (Term.Set.add a (Term.Set.add b cs), ps, adj_add sc a b, sp, dom,
             rng)
        | Subproperty (a, b) ->
            (cs, Term.Set.add a (Term.Set.add b ps), sc, adj_add sp a b, dom,
             rng)
        | Domain (p, c) ->
            (Term.Set.add c cs, Term.Set.add p ps, sc, sp, adj_add dom p c,
             rng)
        | Range (p, c) ->
            (Term.Set.add c cs, Term.Set.add p ps, sc, sp, dom,
             adj_add rng p c))
      ( Term.Set.empty, Term.Set.empty, Term.Map.empty, Term.Map.empty,
        Term.Map.empty, Term.Map.empty )
      declared
  in
  let subclass_up = reachability sc classes in
  let subprop_up = reachability sp properties in
  (* Closed domains: domain_of(p) = ∪ { up*(c) | p' ∈ up*(p), c ∈ dom(p') } *)
  let close_typing typing =
    Term.Set.fold
      (fun p acc ->
        let supers = adj_find subprop_up p in
        let cs =
          Term.Set.fold
            (fun p' acc ->
              Term.Set.fold
                (fun c acc -> Term.Set.union acc (adj_find subclass_up c))
                (adj_find typing p') acc)
            supers Term.Set.empty
        in
        if Term.Set.is_empty cs then acc else Term.Map.add p cs acc)
      properties Term.Map.empty
  in
  {
    declared;
    subclass_up;
    subclass_down = invert subclass_up;
    subprop_up;
    subprop_down = invert subprop_up;
    domain_of = close_typing dom;
    range_of = close_typing rng;
    classes;
    properties;
  }

let empty = of_constraints []

let add c s = of_constraints (s.declared @ [ c ])

let constraints s = s.declared

let constr_to_triple = function
  | Subclass (a, b) -> Triple.make a Vocab.rdfs_subclassof b
  | Subproperty (a, b) -> Triple.make a Vocab.rdfs_subpropertyof b
  | Domain (p, c) -> Triple.make p Vocab.rdfs_domain c
  | Range (p, c) -> Triple.make p Vocab.rdfs_range c

let constr_of_triple (t : Triple.t) =
  if Term.equal t.pred Vocab.rdfs_subclassof then Some (Subclass (t.subj, t.obj))
  else if Term.equal t.pred Vocab.rdfs_subpropertyof then
    Some (Subproperty (t.subj, t.obj))
  else if Term.equal t.pred Vocab.rdfs_domain then Some (Domain (t.subj, t.obj))
  else if Term.equal t.pred Vocab.rdfs_range then Some (Range (t.subj, t.obj))
  else None

let classes s = s.classes
let properties s = s.properties

let strict m x = Term.Set.remove x (adj_find m x)

let super_classes s c = strict s.subclass_up c
let sub_classes s c = strict s.subclass_down c
let super_properties s p = strict s.subprop_up p
let sub_properties s p = strict s.subprop_down p

let domains s p = adj_find s.domain_of p
let ranges s p = adj_find s.range_of p

let inverse_typing typing s c =
  (* All properties p with c ∈ typing(p).  Schemas are small: scan. *)
  Term.Set.filter (fun p -> Term.Set.mem c (adj_find typing p)) s.properties

let properties_with_domain s c = inverse_typing s.domain_of s c
let properties_with_range s c = inverse_typing s.range_of s c

let is_subclass s c c' =
  Term.equal c c' || Term.Set.mem c' (adj_find s.subclass_up c)

let closure s =
  let pairs m mk =
    Term.Map.fold
      (fun a succs acc ->
        Term.Set.fold
          (fun b acc -> if Term.equal a b then acc else mk a b :: acc)
          succs acc)
      m []
  in
  pairs s.subclass_up (fun a b -> Subclass (a, b))
  @ pairs s.subprop_up (fun a b -> Subproperty (a, b))
  @ pairs s.domain_of (fun p c -> Domain (p, c))
  @ pairs s.range_of (fun p c -> Range (p, c))

let compare_constr a b =
  let key = function
    | Subclass (x, y) -> (0, x, y)
    | Subproperty (x, y) -> (1, x, y)
    | Domain (x, y) -> (2, x, y)
    | Range (x, y) -> (3, x, y)
  in
  let (ta, xa, ya) = key a and (tb, xb, yb) = key b in
  let c = Int.compare ta tb in
  if c <> 0 then c
  else
    let c = Term.compare xa xb in
    if c <> 0 then c else Term.compare ya yb

let equal_closure a b =
  let sorted s = List.sort_uniq compare_constr (closure s) in
  List.equal (fun x y -> compare_constr x y = 0) (sorted a) (sorted b)

let size s = List.length s.declared

let pp fmt s =
  List.iter
    (fun c -> Format.fprintf fmt "%a@." Triple.pp (constr_to_triple c))
    s.declared
