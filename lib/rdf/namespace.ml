type t = (string * string) list
(* invariant: sorted by decreasing base length, so the first match is the
   longest one *)

let empty = []

let add ~prefix ~base t =
  if prefix = "" then invalid_arg "Namespace.add: empty prefix";
  if base = "" then invalid_arg "Namespace.add: empty base";
  if String.contains prefix ':' then
    invalid_arg "Namespace.add: prefix must not contain ':'";
  List.sort
    (fun (_, b1) (_, b2) -> Int.compare (String.length b2) (String.length b1))
    ((prefix, base) :: List.remove_assoc prefix t)

let default =
  empty
  |> add ~prefix:"rdf" ~base:"http://www.w3.org/1999/02/22-rdf-syntax-ns#"
  |> add ~prefix:"rdfs" ~base:"http://www.w3.org/2000/01/rdf-schema#"

let of_list pairs =
  List.fold_left (fun t (prefix, base) -> add ~prefix ~base t) default pairs

let expand t name =
  match String.index_opt name ':' with
  | None -> None
  | Some i ->
      let prefix = String.sub name 0 i in
      let local = String.sub name (i + 1) (String.length name - i - 1) in
      Option.map (fun base -> base ^ local) (List.assoc_opt prefix t)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let compact t term =
  match term with
  | Term.Uri iri -> (
      let matching =
        List.find_opt (fun (_, base) -> starts_with ~prefix:base iri) t
      in
      match matching with
      | Some (prefix, base) ->
          let local =
            String.sub iri (String.length base)
              (String.length iri - String.length base)
          in
          prefix ^ ":" ^ local
      | None -> Term.to_string term)
  | Term.Literal _ | Term.Bnode _ -> Term.to_string term

let prefixes t = t
