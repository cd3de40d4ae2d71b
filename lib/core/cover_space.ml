open Query

(* OEIS A046165: number of minimal covers of an n-set. *)
let minimal_cover_table =
  [| 1; 2; 8; 49; 462; 6424; 129425; 4113682 |]

let minimal_cover_counts n =
  if n < 1 || n > Array.length minimal_cover_table then
    invalid_arg "Cover_space.minimal_cover_counts: 1 <= n <= 8"
  else minimal_cover_table.(n - 1)

let connected_fragments (q : Bgp.t) =
  let n = List.length q.body in
  let atoms = Array.of_list q.body in
  let rec subsets i =
    if i = n then [ [] ]
    else
      let rest = subsets (i + 1) in
      rest @ List.map (fun s -> i :: s) rest
  in
  subsets 0
  |> List.filter (fun f ->
         f <> []
         && Bgp.is_connected (List.map (fun i -> atoms.(i)) f))

type budget = { max_covers : int; max_millis : float }

let default_budget = { max_covers = 200_000; max_millis = 30_000.0 }

type enumeration = { covers : Jucq.cover list; complete : bool }

let cover_key (c : Jucq.cover) =
  let frag f = String.concat "," (List.map string_of_int f) in
  String.concat ";" (List.sort String.compare (List.map frag c))

(* A cover is minimal when every fragment covers at least one atom no other
   fragment covers. *)
let minimal (c : Jucq.cover) =
  List.for_all
    (fun f ->
      List.exists
        (fun a ->
          not (List.exists (fun g -> g != f && List.mem a g) c))
        f)
    c

let enumerate ?(budget = default_budget) (q : Bgp.t) =
  let n = List.length q.body in
  let fragments = Array.of_list (connected_fragments q) in
  let start = Unix.gettimeofday () in
  let out = ref [] in
  let seen = Hashtbl.create 1024 in
  let count = ref 0 in
  let truncated = ref false
  (* wall-clock, as documented: CPU time would sum every domain's work *)
  and deadline_hit () =
    (Unix.gettimeofday () -. start) *. 1000.0 > budget.max_millis
  in
  let exception Stop in
  let covered = Array.make n false in
  let rec next_uncovered i =
    if i >= n then None else if covered.(i) then next_uncovered (i + 1) else Some i
  in
  let rec search chosen =
    if !count >= budget.max_covers || deadline_hit () then begin
      truncated := true;
      raise Stop
    end;
    match next_uncovered 0 with
    | None ->
        let cover = List.rev chosen in
        let key = cover_key cover in
        if
          (not (Hashtbl.mem seen key))
          && minimal cover
          && Result.is_ok (Jucq.check_cover q cover)
        then begin
          Hashtbl.add seen key ();
          incr count;
          out := cover :: !out
        end
    | Some a ->
        Array.iter
          (fun f ->
            if List.mem a f then begin
              let included =
                List.exists
                  (fun g ->
                    List.for_all (fun i -> List.mem i g) f
                    || List.for_all (fun i -> List.mem i f) g)
                  chosen
              in
              if not included then begin
                let newly = List.filter (fun i -> not covered.(i)) f in
                List.iter (fun i -> covered.(i) <- true) newly;
                search (f :: chosen);
                List.iter (fun i -> covered.(i) <- false) newly
              end
            end)
          fragments
  in
  (try search [] with Stop -> ());
  { covers = List.rev !out; complete = not !truncated }
