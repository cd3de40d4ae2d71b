(* lubm-cold: one in-process caller answering SPARQL texts drawn uniformly
   from the 28 LUBM templates under GCov on a cache-off system, so every
   request pays full planning and evaluation.

   The traced variant rebuilds [Answering.answer]'s GCov path from public
   calls ([Objective.create] with timed reformulation and cost closures,
   [Gcov.search], [Jucq.make], [Executor.eval_jucq], [Executor.decode]) and
   must reproduce [Answering.answer] exactly: cover, rows and operations. *)

open Common
module Ex = Engine.Executor
module A = Rqa.Answering

(* Per-template reference taken after set-up: the cover [Answering.answer]
   chose, its engine-operation delta and the digest of its rows. *)
type reference = { cover : Query.Jucq.cover; ops : int; digest : Digest.t }

let answer sys text =
  let engine = A.engine sys in
  let ops0 = Ex.total_operations engine in
  let r = A.answer sys A.Gcov (Query.Sparql.parse text) in
  let rows = Ex.decode engine r.A.answers in
  (r, rows, Ex.total_operations engine - ops0)

let build () =
  let t0 = now_ms () in
  let store = Es.of_graph (dataset ()) in
  let load_ms = now_ms () -. t0 in
  let cache = Cache.create ~mode:Cache.Off store in
  let sys = A.make ~profile:Engine.Profile.postgres_like ~cache store in
  Array.iter (fun (_, text) -> ignore (answer sys text)) templates;
  (sys, load_ms, now_ms () -. t0)

(* [f ()] computed in a forked child process and returned through a pipe.
   What the child allocates never counts in this process's peak resident
   set, which is lubm-cold's [peak_rss_mb]. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let code =
        match f () with
        | v ->
            Marshal.to_channel oc v [];
            close_out oc;
            0
        | exception _ -> 1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v =
        try Some (Marshal.from_channel ic : 'a)
        with End_of_file | Failure _ -> None
      in
      close_in ic;
      match (v, snd (Unix.waitpid [] pid)) with
      | Some v, Unix.WEXITED 0 -> v
      | _ -> failwith "a benchmark child process failed")

(* ---- the traced pipeline ---- *)

type span_totals = {
  mutable requests : int;
  mutable wall : float;
  mutable parse : float;
  mutable refm : float;
  mutable ref_calls : int;
  mutable ref_cqs : int;
  mutable cost : float;
  mutable cost_calls : int;
  mutable search_self : float;
  mutable explored : int;
  mutable jucq_self : float;
  mutable eval : float;
  mutable ops : int;
  mutable statements : int;
  mutable rows : int;
  mutable decode : float;
  mutable min_coverage : float;
}

let span_totals () =
  {
    requests = 0; wall = 0.; parse = 0.; refm = 0.; ref_calls = 0;
    ref_cqs = 0; cost = 0.; cost_calls = 0; search_self = 0.; explored = 0;
    jucq_self = 0.; eval = 0.; ops = 0; statements = 0; rows = 0;
    decode = 0.; min_coverage = infinity;
  }

exception Refused of int

(* One traced request.  Returns the cover, rows and operation delta for
   the comparison with the reference; accumulates span times into [s]. *)
let traced s sys text =
  let cache = A.cache sys and cm = A.cost_model sys and engine = A.engine sys in
  let refm0 = s.refm and cost0 = s.cost in
  let t0 = now_ms () in
  let q = Bgp.normalize (Query.Sparql.parse text) in
  let t1 = now_ms () in
  let timed_cost f x =
    let a = now_ms () in
    let c = f x in
    s.cost <- s.cost +. (now_ms () -. a);
    s.cost_calls <- s.cost_calls + 1;
    c
  in
  let reformulate cq =
    let a = now_ms () in
    let u = Cache.reformulate cache cq in
    s.refm <- s.refm +. (now_ms () -. a);
    s.ref_calls <- s.ref_calls + 1;
    s.ref_cqs <- s.ref_cqs + Query.Ucq.cardinal u;
    u
  in
  let refm = A.reformulator sys in
  let capacity = (Ex.profile engine).Engine.Profile.max_union_terms in
  let fragment_capacity cq =
    Reformulation.Reformulate.count_product_bound refm cq <= capacity
  in
  let t2 = now_ms () in
  let obj =
    Rqa.Objective.create ~fragment_capacity ~reformulate
      ~jucq_cost:(timed_cost (Rqa.Cost_model.jucq_cost cm))
      ~ucq_cost:(timed_cost (Rqa.Cost_model.ucq_cost cm))
      q
  in
  let result = Rqa.Gcov.search obj in
  let t3 = now_ms () in
  let search_children = s.refm -. refm0 +. (s.cost -. cost0) in
  let cover = result.Rqa.Gcov.cover in
  List.iter
    (fun f ->
      let bound =
        Reformulation.Reformulate.count_product_bound refm
          (Query.Jucq.cover_query q cover f)
      in
      if bound > capacity then raise (Refused bound))
    cover;
  let refm1 = s.refm in
  let jucq = Query.Jucq.make ~reformulate q cover in
  let t4 = now_ms () in
  let jucq_children = s.refm -. refm1 in
  ignore (timed_cost (Rqa.Cost_model.jucq_cost cm) jucq : float);
  let ops0 = Ex.total_operations engine and st0 = Ex.statements_run engine in
  let t5 = now_ms () in
  let rel = Ex.eval_jucq engine jucq in
  let t6 = now_ms () in
  let rows = Ex.decode engine rel in
  let t7 = now_ms () in
  let ops = Ex.total_operations engine - ops0 in
  let wall = t7 -. t0 in
  let parse = t1 -. t0
  and search_self = t3 -. t2 -. search_children
  and jucq_self = t4 -. t3 -. jucq_children
  and eval = t6 -. t5
  and decode = t7 -. t6 in
  let spans =
    parse +. (s.refm -. refm0) +. (s.cost -. cost0) +. search_self +. jucq_self
    +. eval +. decode
  in
  s.requests <- s.requests + 1;
  s.wall <- s.wall +. wall;
  s.parse <- s.parse +. parse;
  s.search_self <- s.search_self +. search_self;
  s.explored <- s.explored + result.Rqa.Gcov.explored;
  s.jucq_self <- s.jucq_self +. jucq_self;
  s.eval <- s.eval +. eval;
  s.ops <- s.ops + ops;
  s.statements <- s.statements + (Ex.statements_run engine - st0);
  s.rows <- s.rows + List.length rows;
  s.decode <- s.decode +. decode;
  s.min_coverage <- Float.min s.min_coverage (spans /. wall);
  (cover, rows, ops)

(* ---- the workload ---- *)

let gc_counts () =
  let get name =
    List.fold_left
      (fun acc (m : Metrics.metric) ->
        match m.Metrics.value with
        | Metrics.Gauge v when m.Metrics.name = name -> v
        | _ -> acc)
      0.0 (Metrics.snapshot ())
  in
  (get "gc.major_collections", get "gc.minor_collections")

let run ~seed ~seconds ~trace ~boots ~requests =
  Par.set_jobs 1;
  Analysis.Cost_verify.set_enabled false;
  (* The saturation reference and all set-ups but the measured one run in
     child processes: with several heaps built and dropped in this
     process, its peak resident set moved by up to 13% between runs with
     the address-space layout. *)
  let saturated =
    in_child (fun () -> reference_digests (Es.of_graph (dataset ())))
  in
  let setup_times =
    Array.init (boots - 1) (fun _ ->
        in_child (fun () ->
            let _, _, ms = build () in
            ms /. 1000.))
  in
  Metrics.install_gc_samplers ();
  let sys, load_ms, ms = build () in
  let setup_s = median (Array.append setup_times [| ms /. 1000. |]) in
  let setup_heap = heap_mb () in
  let refs =
    Array.map
      (fun (_, text) ->
        let r, rows, ops = answer sys text in
        { cover = Option.get r.A.cover; ops; digest = rows_digest rows })
      templates
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i r -> if r.digest <> saturated.(i) then incr mismatches)
    refs;
  (* The peak through set-up and the GCov reference pass: the window's own
     heap growth depends on how many requests the host's speed allowed. *)
  let setup_rss = peak_rss_mb "self" in
  Gc.compact ();
  let sched = schedule uniform_quota ~seed ~conn:0 in
  let lat = Samples.create () in
  (* successful latencies per template: untraced, traced *)
  let by_template =
    Array.init 2 (fun _ -> Array.init n_templates (fun _ -> Samples.create ()))
  in
  let failed = ref 0 and attempted = ref 0 and rows_total = ref 0 in
  let ops_total = ref 0 and sequence = Buffer.create 1024 in
  let spans = span_totals () in
  let gc0 = gc_counts () in
  (* With --trace 1 the first half of the window runs the untraced path
     and the second half the traced pipeline, for the overhead figure. *)
  let run_window ~traced_phase ~until ~count =
    let k = ref 0 in
    while
      match count with Some n -> !k < n | None -> now_ms () < until
    do
      incr k;
      let i = next sched in
      Buffer.add_char sequence (Char.chr (65 + i));
      let text = snd templates.(i) in
      incr attempted;
      let t0 = now_ms () in
      match
        if traced_phase then
          let cover, rows, ops = traced spans sys text in
          (Some cover, rows, ops)
        else
          let r, rows, ops = answer sys text in
          (r.A.cover, rows, ops)
      with
      | cover, rows, ops ->
          let ms = now_ms () -. t0 in
          Samples.add lat ms;
          Samples.add by_template.(Bool.to_int traced_phase).(i) ms;
          rows_total := !rows_total + List.length rows;
          ops_total := !ops_total + ops;
          let r = refs.(i) in
          if
            cover <> Some r.cover || ops <> r.ops
            || rows_digest rows <> saturated.(i)
          then incr mismatches
      | exception (Engine.Profile.Engine_failure _ | Refused _) ->
          incr failed;
          Samples.add lat failure_latency_ms
    done
  in
  let t_start = now_ms () in
  let until = t_start +. (seconds *. 1000.) in
  (match requests with
  | Some n -> run_window ~traced_phase:trace ~until ~count:(Some n)
  | None when trace ->
      run_window ~traced_phase:false ~until:(t_start +. (seconds *. 500.))
        ~count:None;
      run_window ~traced_phase:true ~until ~count:None
  | None -> run_window ~traced_phase:false ~until ~count:None);
  let window_s = (now_ms () -. t_start) /. 1000. in
  let gc1 = gc_counts () in
  let reads = float_of_int (!attempted - !failed) in
  let lat = Samples.to_array lat in
  log_samples "lubm-cold" ~reads:lat ~writes:0;
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("qps", reads /. window_s, "1/s");
      ("p50_ms", median lat, "ms");
      ("p98_ms", quantile lat tail, "ms");
      ("peak_rss_mb", setup_rss, "MB");
    ]
  in
  let per_request x = if spans.requests = 0 then 0. else x /. float_of_int spans.requests in
  let per_req_i x = per_request (float_of_int x) in
  let untraced = Array.map Samples.to_array by_template.(0)
  and traced_ms = Array.map Samples.to_array by_template.(1) in
  log_templates (Array.map2 Array.append untraced traced_ms);
  let per_layer =
    [
      ("query.parse_ms", per_request spans.parse, "ms");
      ("reformulation.ms", per_request spans.refm, "ms");
      ("reformulation.calls", per_req_i spans.ref_calls, "count");
      ("reformulation.cqs", per_req_i spans.ref_cqs, "count");
      ("cost_model.ms", per_request spans.cost, "ms");
      ("cost_model.calls", per_req_i spans.cost_calls, "count");
      ("cover_search.self_ms", per_request spans.search_self, "ms");
      ("cover_search.covers_explored", per_req_i spans.explored, "count");
      ("plan.jucq_ms", per_request spans.jucq_self, "ms");
      ("engine.eval_ms", per_request spans.eval, "ms");
      ("engine.operations", per_req_i spans.ops, "count");
      ("engine.statements", per_req_i spans.statements, "count");
      ( "engine.ops_per_row",
        (if spans.rows = 0 then 0.
         else float_of_int spans.ops /. float_of_int spans.rows),
        "count" );
      ("engine.decode_ms", per_request spans.decode, "ms");
      ("trace.wall_ms", per_request spans.wall, "ms");
      ( "trace.coverage_min",
        (if spans.requests = 0 then 0. else spans.min_coverage),
        "ratio" );
      ("trace.overhead_pct", overhead_pct ~untraced ~traced:traced_ms, "%");
      ("setup.load_ms", load_ms, "ms");
      ("setup.heap_mb", setup_heap, "MB");
      ("gc.major_collections", fst gc1 -. fst gc0, "count");
      ("gc.minor_collections", snd gc1 -. snd gc0, "count");
      ( "error_rate",
        float_of_int !failed /. float_of_int (max 1 !attempted),
        "ratio" );
    ]
  in
  let coverage_ok =
    (not trace) || spans.requests = 0
    || Float.abs (spans.min_coverage -. 1.) <= 0.05
  in
  if !mismatches > 0 then log "lubm-cold: %d answer mismatches" !mismatches;
  if not coverage_ok then
    log "lubm-cold: spans cover only %.3f of a traced request"
      spans.min_coverage;
  {
    correct = !mismatches = 0 && coverage_ok;
    attempted = !attempted;
    failed = !failed;
    metrics = (if trace then per_layer else end_to_end);
    counts =
      [
        ("sequence", Digest.to_hex (Digest.string (Buffer.contents sequence)));
        ("engine.operations", string_of_int !ops_total);
        ("rows", string_of_int !rows_total);
        ("errors", string_of_int !failed);
      ];
  }
