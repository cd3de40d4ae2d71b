(* Tests for the storage substrate: int vectors, the dictionary-encoded
   triple table with its six access paths, and the statistics module. *)

let u s = Rdf.Term.uri s
let lit s = Rdf.Term.literal s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Query.Bgp.Var x
let c t = Query.Bgp.Const t

(* ---- Intvec ---- *)

let test_intvec_push_get () =
  let vec = Store.Intvec.create ~capacity:2 () in
  for i = 0 to 99 do
    Store.Intvec.push vec (i * i)
  done;
  Alcotest.(check int) "length" 100 (Store.Intvec.length vec);
  Alcotest.(check int) "get 10" 100 (Store.Intvec.get vec 10);
  Store.Intvec.set vec 10 7;
  Alcotest.(check int) "set" 7 (Store.Intvec.get vec 10)

let test_intvec_bounds () =
  let vec = Store.Intvec.of_array [| 1; 2; 3 |] in
  Alcotest.(check bool) "oob raises" true
    (try ignore (Store.Intvec.get vec 3); false
     with Invalid_argument _ -> true)

let test_intvec_roundtrip () =
  let a = Array.init 57 (fun i -> 3 * i) in
  Alcotest.(check (array int)) "roundtrip" a
    (Store.Intvec.to_array (Store.Intvec.of_array a))

(* ---- Encoded_store ---- *)

let sample_schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "A", u "B");
      Rdf.Schema.Subproperty (u "p", u "q");
      Rdf.Schema.Domain (u "p", u "A");
      Rdf.Schema.Range (u "p", u "B");
    ]

let sample_store () =
  let s = Store.Encoded_store.create sample_schema in
  List.iter (Store.Encoded_store.insert s)
    [
      tr (u "x1") typ (u "A");
      tr (u "x1") (u "p") (u "y1");
      tr (u "x2") (u "p") (u "y1");
      tr (u "x2") (u "q") (u "y2");
      tr (u "x3") (u "r") (lit "42");
    ];
  s

let code st term =
  match Store.Encoded_store.encode_term st term with
  | Some code -> code
  | None -> Alcotest.fail ("missing term: " ^ Rdf.Term.to_string term)

let test_store_insert_dedup () =
  let s = sample_store () in
  Alcotest.(check int) "size" 5 (Store.Encoded_store.size s);
  Store.Encoded_store.insert s (tr (u "x1") typ (u "A"));
  Alcotest.(check int) "duplicate ignored" 5 (Store.Encoded_store.size s)

let test_store_rejects_constraints () =
  let s = sample_store () in
  Alcotest.(check bool) "constraint raises" true
    (try
       Store.Encoded_store.insert s (tr (u "A") Rdf.Vocab.rdfs_subclassof (u "B"));
       false
     with Invalid_argument _ -> true)

let test_store_access_paths () =
  let s = sample_store () in
  let p = code s (u "p") in
  let x2 = code s (u "x2") in
  let y1 = code s (u "y1") in
  let count ps pp po = Store.Encoded_store.count s { Store.Encoded_store.ps; pp; po } in
  Alcotest.(check int) "by property" 2 (count None (Some p) None);
  Alcotest.(check int) "by subject" 2 (count (Some x2) None None);
  Alcotest.(check int) "by object" 2 (count None None (Some y1));
  Alcotest.(check int) "by subject+property" 1 (count (Some x2) (Some p) None);
  Alcotest.(check int) "by property+object" 2 (count None (Some p) (Some y1));
  Alcotest.(check int) "by subject+object" 1 (count (Some x2) None (Some y1));
  Alcotest.(check int) "full triple" 1 (count (Some x2) (Some p) (Some y1));
  Alcotest.(check int) "wildcard" 5 (count None None None)

let test_store_graph_roundtrip () =
  let s = sample_store () in
  let g = Store.Encoded_store.to_graph s in
  Alcotest.(check int) "graph size" 5 (Rdf.Graph.size g);
  let s2 = Store.Encoded_store.of_graph g in
  Alcotest.(check int) "re-encoded size" 5 (Store.Encoded_store.size s2)

let test_store_saturate () =
  let s = sample_store () in
  let sat = Store.Encoded_store.saturate s in
  let g_expected = Rdf.Saturation.saturate (Store.Encoded_store.to_graph s) in
  Alcotest.(check int) "saturated size"
    (Rdf.Graph.size g_expected)
    (Store.Encoded_store.size sat);
  Alcotest.(check bool) "same graph" true
    (Rdf.Graph.equal g_expected (Store.Encoded_store.to_graph sat));
  (* x1 p y1 entails x1 q y1, x1 type A (domain), y1 type B (range) *)
  let co term = code sat term in
  Alcotest.(check bool) "subproperty fact" true
    (Store.Encoded_store.mem_code sat (co (u "x1")) (co (u "q")) (co (u "y1")))

(* ---- Statistics ---- *)

let test_stats_atom_count () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  Alcotest.(check int) "p wildcard" 2
    (Store.Statistics.atom_count stats (Query.Bgp.atom (v "x") (c (u "p")) (v "y")));
  Alcotest.(check int) "absent constant" 0
    (Store.Statistics.atom_count stats
       (Query.Bgp.atom (v "x") (c (u "nosuch")) (v "y")));
  Alcotest.(check int) "bound object" 2
    (Store.Statistics.atom_count stats
       (Query.Bgp.atom (v "x") (c (u "p")) (c (u "y1"))))

let test_stats_repeated_var () =
  let s = Store.Encoded_store.create Rdf.Schema.empty in
  List.iter (Store.Encoded_store.insert s)
    [ tr (u "a") (u "p") (u "a"); tr (u "a") (u "p") (u "b") ];
  let stats = Store.Statistics.create s in
  Alcotest.(check int) "x p x" 1
    (Store.Statistics.atom_count stats (Query.Bgp.atom (v "x") (c (u "p")) (v "x")))

let test_stats_ndv () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let p = code s (u "p") in
  Alcotest.(check int) "ndv subjects of p" 2
    (Store.Statistics.ndv stats ~prop:p `Subject);
  Alcotest.(check int) "ndv objects of p" 1
    (Store.Statistics.ndv stats ~prop:p `Object)

let test_stats_cq_estimate () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let single =
    Query.Bgp.make [ v "x" ] [ Query.Bgp.atom (v "x") (c (u "p")) (v "y") ]
  in
  Alcotest.(check (float 0.001)) "single atom exact" 2.0
    (Store.Statistics.cq_cardinality stats single);
  let join =
    Query.Bgp.make [ v "x" ]
      [
        Query.Bgp.atom (v "x") (c (u "p")) (v "y");
        Query.Bgp.atom (v "x") (c (u "q")) (v "z");
      ]
  in
  (* 2 × 1 / max(ndv_s(p)=2, ndv_s(q)=1) = 1 *)
  Alcotest.(check (float 0.001)) "join estimate" 1.0
    (Store.Statistics.cq_cardinality stats join);
  let empty =
    Query.Bgp.make [ v "x" ] [ Query.Bgp.atom (v "x") (c (u "nosuch")) (v "y") ]
  in
  Alcotest.(check (float 0.001)) "empty atom" 0.0
    (Store.Statistics.cq_cardinality stats empty)

let test_stats_invalidation_on_insert () =
  let s = sample_store () in
  let stats = Store.Statistics.create s in
  let atom = Query.Bgp.atom (v "x") (c (u "p")) (v "y") in
  Alcotest.(check int) "before" 2 (Store.Statistics.atom_count stats atom);
  Alcotest.(check (float 0.001)) "cq before" 2.0
    (Store.Statistics.cq_cardinality stats
       (Query.Bgp.make [ v "x" ] [ atom ]));
  Store.Encoded_store.insert s (tr (u "x9") (u "p") (u "y9"));
  Alcotest.(check int) "count after insert" 3
    (Store.Statistics.atom_count stats atom);
  Alcotest.(check (float 0.001)) "cq estimate refreshed" 3.0
    (Store.Statistics.cq_cardinality stats
       (Query.Bgp.make [ v "x" ] [ atom ]))

(* ---- Snapshot ---- *)

let test_snapshot_roundtrip () =
  let s = sample_store () in
  let path = Filename.temp_file "rqa" ".snap" in
  Store.Snapshot.save path s;
  let s2 = Store.Snapshot.load path in
  Sys.remove path;
  Alcotest.(check int) "size" (Store.Encoded_store.size s)
    (Store.Encoded_store.size s2);
  Alcotest.(check bool) "same graph" true
    (Rdf.Graph.equal
       (Store.Encoded_store.to_graph s)
       (Store.Encoded_store.to_graph s2));
  (* codes are preserved, so pattern counts agree *)
  let p = code s (u "p") in
  Alcotest.(check int) "same posting" 
    (Store.Encoded_store.count s { Store.Encoded_store.ps = None; pp = Some p; po = None })
    (Store.Encoded_store.count s2 { Store.Encoded_store.ps = None; pp = Some p; po = None })

let test_snapshot_bad_tag () =
  let path = Filename.temp_file "rqa" ".snap" in
  let oc = open_out path in
  output_string oc "not a snapshot at all";
  close_out oc;
  let raised =
    try ignore (Store.Snapshot.load path); false
    with Invalid_argument _ -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "bad tag rejected" true raised

(* ---- qcheck: pattern counts agree with naive filtering ---- *)

let gen_term = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "n%d" i)) (int_bound 4))
let gen_prop = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "p%d" i)) (int_bound 2))

let gen_triples =
  QCheck2.Gen.(
    list_size (int_bound 40)
      (let* s = gen_term and* p = gen_prop and* o = gen_term in
       return (tr s p o)))

let prop_count_matches_naive =
  QCheck2.Test.make ~count:200 ~name:"store counts = naive filter counts"
    QCheck2.Gen.(
      tup4 gen_triples (option gen_term) (option gen_prop) (option gen_term))
    (fun (triples, s_opt, p_opt, o_opt) ->
      let store = Store.Encoded_store.create Rdf.Schema.empty in
      List.iter (Store.Encoded_store.insert store) triples;
      let distinct = List.sort_uniq Rdf.Triple.compare triples in
      let naive =
        List.length
          (List.filter
             (fun (t : Rdf.Triple.t) ->
               (match s_opt with None -> true | Some x -> Rdf.Term.equal t.subj x)
               && (match p_opt with None -> true | Some x -> Rdf.Term.equal t.pred x)
               && (match o_opt with None -> true | Some x -> Rdf.Term.equal t.obj x))
             distinct)
      in
      let enc = Store.Encoded_store.encode_term store in
      let resolve = function
        | None -> Some None
        | Some term -> (
            match enc term with None -> None | Some code -> Some (Some code))
      in
      match (resolve s_opt, resolve p_opt, resolve o_opt) with
      | Some ps, Some pp, Some po ->
          Store.Encoded_store.count store { Store.Encoded_store.ps; pp; po }
          = naive
      | _ -> naive = 0)

let prop_saturate_matches_graph_saturation =
  QCheck2.Test.make ~count:100 ~name:"store saturation = graph saturation"
    QCheck2.Gen.(
      pair gen_triples
        (list_size (int_bound 4)
           (oneof
              [
                map2 (fun a b -> Rdf.Schema.Subclass (a, b)) gen_term gen_term;
                map2 (fun p cl -> Rdf.Schema.Domain (p, cl)) gen_prop gen_term;
                map2 (fun p cl -> Rdf.Schema.Range (p, cl)) gen_prop gen_term;
                map2 (fun a b -> Rdf.Schema.Subproperty (a, b)) gen_prop gen_prop;
              ])))
    (fun (triples, constrs) ->
      let schema = Rdf.Schema.of_constraints constrs in
      let store = Store.Encoded_store.create schema in
      List.iter (Store.Encoded_store.insert store) triples;
      let sat_store = Store.Encoded_store.saturate store in
      let sat_graph =
        Rdf.Saturation.saturate (Rdf.Graph.make schema triples)
      in
      Rdf.Graph.equal (Store.Encoded_store.to_graph sat_store) sat_graph)

(* Deletes find posting entries through each triple's recorded positions.
   The reference below is the scanning delete they replace: search each
   posting for the id, overwrite it with the posting's last entry, and
   relabel the store's last triple in place.  Every posting must hold the
   same ids in the same order after any insert/delete sequence. *)
let reference_postings ops =
  let cols = ref [||] in
  let post : (int * int * int, int array) Hashtbl.t = Hashtbl.create 16 in
  let keys (s, p, o) =
    [ (0, s, 0); (1, p, 0); (2, o, 0); (3, s, p); (4, p, o); (5, s, o) ]
  in
  let find_index a x =
    let rec go i = if a.(i) = x then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (insert, t) ->
      match (insert, find_index (Array.append !cols [| t |]) t) with
      | true, i when i = Array.length !cols ->
          cols := Array.append !cols [| t |];
          List.iter
            (fun k ->
              let v = Option.value ~default:[||] (Hashtbl.find_opt post k) in
              Hashtbl.replace post k (Array.append v [| i |]))
            (keys t)
      | false, id when id < Array.length !cols ->
          let last = Array.length !cols - 1 in
          List.iter
            (fun k ->
              let v = Array.copy (Hashtbl.find post k) in
              let n = Array.length v in
              v.(find_index v id) <- v.(n - 1);
              if n = 1 then Hashtbl.remove post k
              else Hashtbl.replace post k (Array.sub v 0 (n - 1)))
            (keys t);
          if id <> last then begin
            let lt = !cols.(last) in
            List.iter
              (fun k ->
                let v = Array.copy (Hashtbl.find post k) in
                v.(find_index v last) <- id;
                Hashtbl.replace post k v)
              (keys lt);
            !cols.(id) <- lt
          end;
          cols := Array.sub !cols 0 last
      | _ -> ())
    ops;
  post

let prop_delete_postings_match_scan =
  QCheck2.Test.make ~count:200
    ~name:"positioned deletes leave the scanning deletes' postings"
    QCheck2.Gen.(
      list_size (int_bound 80)
        (pair bool (triple (int_bound 4) (int_bound 2) (int_bound 4))))
    (fun ops ->
      let store = Store.Encoded_store.create Rdf.Schema.empty in
      List.iter
        (fun (insert, (s, p, o)) ->
          if insert then Store.Encoded_store.insert_code store s p o
          else ignore (Store.Encoded_store.delete_code store s p o))
        ops;
      let reference = reference_postings ops in
      Hashtbl.fold
        (fun (kind, a, b) ids ok ->
          let some x = Some x in
          let ps, pp, po =
            match kind with
            | 0 -> (some a, None, None)
            | 1 -> (None, some a, None)
            | 2 -> (None, None, some a)
            | 3 -> (some a, some b, None)
            | 4 -> (None, some a, some b)
            | _ -> (some a, None, some b)
          in
          ok
          && Store.Intvec.to_array
               (Store.Encoded_store.matching store
                  { Store.Encoded_store.ps; pp; po })
             = ids)
        reference true
      && Hashtbl.length reference > 0
         = (Store.Encoded_store.size store > 0))

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_count_matches_naive;
      prop_saturate_matches_graph_saturation;
      prop_delete_postings_match_scan;
    ]

let () =
  Alcotest.run "store"
    [
      ( "intvec",
        [
          Alcotest.test_case "push/get/set" `Quick test_intvec_push_get;
          Alcotest.test_case "bounds" `Quick test_intvec_bounds;
          Alcotest.test_case "roundtrip" `Quick test_intvec_roundtrip;
        ] );
      ( "encoded_store",
        [
          Alcotest.test_case "insert dedup" `Quick test_store_insert_dedup;
          Alcotest.test_case "rejects constraints" `Quick test_store_rejects_constraints;
          Alcotest.test_case "six access paths" `Quick test_store_access_paths;
          Alcotest.test_case "graph roundtrip" `Quick test_store_graph_roundtrip;
          Alcotest.test_case "saturation" `Quick test_store_saturate;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "bad tag" `Quick test_snapshot_bad_tag;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "atom counts" `Quick test_stats_atom_count;
          Alcotest.test_case "repeated variables" `Quick test_stats_repeated_var;
          Alcotest.test_case "ndv" `Quick test_stats_ndv;
          Alcotest.test_case "cq estimates" `Quick test_stats_cq_estimate;
          Alcotest.test_case "invalidation on insert" `Quick test_stats_invalidation_on_insert;
        ] );
      ("properties", qcheck_cases);
    ]
