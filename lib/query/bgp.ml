type pattern_term = Var of string | Const of Rdf.Term.t

type atom = { s : pattern_term; p : pattern_term; o : pattern_term }

type t = { head : pattern_term list; body : atom list }

let pattern_term_compare a b =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1
  | Const x, Const y -> Rdf.Term.compare x y

let pattern_term_equal a b = pattern_term_compare a b = 0

let atom_compare a b =
  let c = pattern_term_compare a.s b.s in
  if c <> 0 then c
  else
    let c = pattern_term_compare a.p b.p in
    if c <> 0 then c else pattern_term_compare a.o b.o

let atom_equal a b = atom_compare a b = 0

let atom s p o = { s; p; o }

let atom_positions a = [ a.s; a.p; a.o ]

let atom_vars a =
  List.filter_map (function Var v -> Some v | Const _ -> None)
    (atom_positions a)
  |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
  |> List.rev

let vars q =
  List.concat_map atom_vars q.body
  |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
  |> List.rev

let make head body =
  if body = [] then invalid_arg "Bgp.make: empty body";
  let body_vars = vars { head = []; body } in
  List.iter
    (function
      | Var v when not (List.mem v body_vars) ->
          invalid_arg ("Bgp.make: head variable not in body: " ^ v)
      | Var _ | Const _ -> ())
    head;
  { head; body }

let head_vars q =
  List.filter_map (function Var v -> Some v | Const _ -> None) q.head
  |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
  |> List.rev

let normalize q =
  let counter = ref 0 in
  let renaming = Hashtbl.create 8 in
  let fresh b =
    match Hashtbl.find_opt renaming b with
    | Some v -> v
    | None ->
        incr counter;
        let v = Printf.sprintf "_bn%d" !counter in
        Hashtbl.add renaming b v;
        v
  in
  let term = function
    | Const (Rdf.Term.Bnode b) -> Var (fresh b)
    | (Var _ | Const _) as t -> t
  in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

let dedup_body q = { q with body = List.sort_uniq atom_compare q.body }

let atoms_connected a b =
  List.exists (fun v -> List.mem v (atom_vars b)) (atom_vars a)

let fragment_connected f g =
  let vf = List.concat_map atom_vars f in
  let vg = List.concat_map atom_vars g in
  List.exists (fun v -> List.mem v vg) vf

let is_connected atoms =
  match atoms with
  | [] | [ _ ] -> true
  | first :: rest ->
      (* Grow a connected component from the first atom. *)
      let rec grow component frontier remaining =
        match frontier with
        | [] -> remaining = []
        | _ ->
            let touched, rest =
              List.partition
                (fun a -> List.exists (atoms_connected a) frontier)
                remaining
            in
            grow (component @ frontier) touched rest
      in
      grow [] [ first ] rest

let subst_term bindings = function
  | Var v as t -> (
      match List.assoc_opt v bindings with
      | Some c -> Const c
      | None -> t)
  | Const _ as t -> t

let apply_subst bindings q =
  let term = subst_term bindings in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

(* Total parallel renaming: every variable of [q] must be in the mapping's
   domain; all occurrences are replaced in one traversal, so permuting
   renamings cannot capture each other. *)
let rename_parallel mapping q =
  let term = function
    | Var v -> Var (List.assoc v mapping)
    | Const _ as t -> t
  in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

(* Canonical form: an exact canonicalization of the query modulo renaming
   of non-distinguished (existential) variables and reordering of atoms.
   Distinguished variables are pinned positionally to h0, h1, …; the
   existential variables are then assigned e0, e1, … by

   1. colour refinement: each existential variable gets a signature built
      from its occurrences (position within the atom, the other positions'
      contents, with existential neighbours represented by their current
      colour), iterated until the partition stabilizes; and
   2. exhaustive tie-breaking: within a colour class the assignment that
      yields the lexicographically least sorted body is chosen.  Classes
      are almost always singletons, so the factorial search is vestigial.

   The result is renaming-invariant and order-invariant, which the
   reformulation engines rely on for duplicate elimination. *)
let canonical q =
  let hv = head_vars q in
  let head_mapping = List.mapi (fun i v -> (v, Printf.sprintf "h%d" i)) hv in
  let evars = List.filter (fun v -> not (List.mem v hv)) (vars q) in
  match evars with
  | [] ->
      let q = rename_parallel head_mapping q in
      { q with body = List.sort_uniq atom_compare q.body }
  | [ only ] ->
      (* Single existential: no symmetry to break. *)
      let q = rename_parallel ((only, "e0") :: head_mapping) q in
      { q with body = List.sort_uniq atom_compare q.body }
  | _ ->
      (* --- colour refinement over existential variables --- *)
      let colour = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace colour v 0) evars;
      let term_repr self = function
        | Const c -> "c:" ^ Rdf.Term.to_string c
        | Var v -> (
            if String.equal v self then "self"
            else
              match List.assoc_opt v head_mapping with
              | Some h -> "h:" ^ h
              | None -> "e:" ^ string_of_int (Hashtbl.find colour v))
      in
      let signature v =
        let occ =
          List.concat_map
            (fun a ->
              let positions = [ (0, a.s); (1, a.p); (2, a.o) ] in
              if
                List.exists
                  (fun (_, t) -> pattern_term_equal t (Var v))
                  positions
              then
                [
                  String.concat "|"
                    (List.map
                       (fun (i, t) ->
                         string_of_int i ^ "=" ^ term_repr v t)
                       positions);
                ]
              else [])
            q.body
        in
        String.concat ";" (List.sort String.compare occ)
      in
      let refine () =
        let sigs = List.map (fun v -> (v, signature v)) evars in
        let distinct =
          List.sort_uniq String.compare (List.map snd sigs)
        in
        let changed = ref false in
        List.iter
          (fun (v, s) ->
            let rec rank i = function
              | [] -> assert false
              | x :: _ when String.equal x s -> i
              | _ :: rest -> rank (i + 1) rest
            in
            let c = rank 0 distinct in
            if Hashtbl.find colour v <> c then begin
              Hashtbl.replace colour v c;
              changed := true
            end)
          sigs;
        !changed
      in
      let rec iterate n = if n > 0 && refine () then iterate (n - 1) in
      iterate (List.length evars + 2);
      (* --- order colour classes canonically, tie-break exhaustively --- *)
      let classes =
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun v ->
            let key = (Hashtbl.find colour v, signature v) in
            Hashtbl.replace tbl key
              (v :: (Option.value ~default:[] (Hashtbl.find_opt tbl key))))
          evars;
        Hashtbl.fold (fun (_, s) vs acc -> (s, vs) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map snd
      in
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
            List.concat_map
              (fun x ->
                List.map (fun rest -> x :: rest)
                  (permutations (List.filter (fun y -> y <> x) l)))
              l
      in
      let orderings =
        (* All concatenations of within-class permutations, class order
           fixed.  Cap the search to avoid pathological blow-ups; queries
           with >6-way symmetric variables fall back to a fixed order
           (costing at worst a missed duplicate). *)
        List.fold_left
          (fun acc cls ->
            let perms =
              if List.length cls > 6 then [ cls ] else permutations cls
            in
            List.concat_map
              (fun prefix -> List.map (fun p -> prefix @ p) perms)
              acc)
          [ [] ] classes
      in
      let candidate ordering =
        let mapping =
          head_mapping
          @ List.mapi (fun i v -> (v, Printf.sprintf "e%d" i)) ordering
        in
        let q' = rename_parallel mapping q in
        { q' with body = List.sort_uniq atom_compare q'.body }
      in
      let better a b =
        let c = List.compare atom_compare a.body b.body in
        if c <> 0 then c < 0
        else List.compare pattern_term_compare a.head b.head < 0
      in
      List.fold_left
        (fun best ordering ->
          let cand = candidate ordering in
          match best with
          | None -> Some cand
          | Some b -> if better cand b then Some cand else best)
        None orderings
      |> Option.get

let raw_compare a b =
  let c = List.compare atom_compare a.body b.body in
  if c <> 0 then c else List.compare pattern_term_compare a.head b.head

let compare a b = raw_compare (canonical a) (canonical b)

let equal a b = compare a b = 0

(* ---- Reference evaluation ---- *)

let match_term binding t value =
  match t with
  | Const c -> if Rdf.Term.equal c value then Some binding else None
  | Var v -> (
      match List.assoc_opt v binding with
      | Some bound ->
          if Rdf.Term.equal bound value then Some binding else None
      | None -> Some ((v, value) :: binding))

let match_atom binding a (tr : Rdf.Triple.t) =
  match match_term binding a.s tr.subj with
  | None -> None
  | Some b -> (
      match match_term b a.p tr.pred with
      | None -> None
      | Some b -> match_term b a.o tr.obj)

let eval g q =
  let q = normalize q in
  let facts = Rdf.Graph.fact_list g in
  let rec search binding = function
    | [] ->
        let row =
          List.map
            (function
              | Const c -> c
              | Var v -> (
                  match List.assoc_opt v binding with
                  | Some c -> c
                  | None -> assert false))
            q.head
        in
        [ row ]
    | a :: rest ->
        List.concat_map
          (fun tr ->
            match match_atom binding a tr with
            | None -> []
            | Some b -> search b rest)
          facts
  in
  List.sort_uniq (List.compare Rdf.Term.compare) (search [] q.body)

let answer g q = eval (Rdf.Saturation.saturate g) q

let pattern_term_to_string = function
  | Var v -> "?" ^ v
  | Const c -> Rdf.Term.to_string c

let to_string q =
  let head = String.concat ", " (List.map pattern_term_to_string q.head) in
  let atom_str a =
    String.concat " " (List.map pattern_term_to_string (atom_positions a))
  in
  Printf.sprintf "q(%s) :- %s" head
    (String.concat ", " (List.map atom_str q.body))

let pp fmt q = Format.pp_print_string fmt (to_string q)
