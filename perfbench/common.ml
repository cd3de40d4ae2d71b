(* Shared pieces of the benchmark: seeded inputs (dataset, templates,
   request sequences, write batch), answer digests, sample statistics and
   the result record every workload returns. *)

module Es = Store.Encoded_store
module Bgp = Query.Bgp

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Diagnostics go to stderr: the last stdout line is the result. *)
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- inputs ---- *)

let universities = 8

(* The 28 LUBM evaluation queries as one-line SPARQL request texts. *)
let templates : (string * string) array =
  Array.of_list
    (List.map
       (fun (name, q) ->
         let text = Query.Sparql.to_sparql q in
         (name, String.map (function '\n' | '\r' -> ' ' | c -> c) text))
       Workloads.Lubm.queries)

let n_templates = Array.length templates

(* Every request text must parse back to its workload query: a template
   that did not round-trip would benchmark a different query. *)
let check_templates () =
  List.iteri
    (fun i (name, q) ->
      let parsed = Bgp.normalize (Query.Sparql.parse (snd templates.(i))) in
      if not (Bgp.equal parsed (Bgp.normalize q)) then
        failwith ("template does not round-trip: " ^ name))
    Workloads.Lubm.queries

(* One dataset for every run: the generator's default seed.  Per-seed
   datasets change every template's answer sizes and with them the cost of
   the mix, which only adds variance between seeds; --seed drives the
   request order and the write batch. *)
let dataset () = Workloads.Lubm.generate_graph { Workloads.Lubm.universities }

(* The fixed fact batch serve-mixed inserts and deletes: 16 new
   graduate students, each typed and a member of a seeded department.
   Fact triples only — a schema triple would re-run the server's warm-up. *)
let write_batch seed =
  let st = Random.State.make [| seed; 0x3717 |] in
  let ub local = Rdf.Term.uri (Workloads.Lubm.ns ^ local) in
  List.concat_map
    (fun k ->
      let ui = Random.State.int st universities
      and di = Random.State.int st 5 in
      let dept =
        Printf.sprintf "http://www.Department%d.University%d.edu" di ui
      in
      let s = Rdf.Term.uri (Printf.sprintf "%s/BenchGraduateStudent%d" dept k) in
      [
        Rdf.Triple.make s Rdf.Vocab.rdf_type (ub "GraduateStudent");
        Rdf.Triple.make s (ub "memberOf") (Rdf.Term.uri dept);
      ])
    (List.init 16 Fun.id)

(* Request schedules.  Requests come in blocks: a block holds each
   template its quota of times, in an order shuffled by the connection's
   seeded stream.  Drawing templates independently instead lets one run
   draw a heavy template (100+ ms) several times more often than another
   run, which moved qps by several percent between seeds; with blocks only
   the last, partial block of a run varies in composition. *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* lubm-cold: every template once per block. *)
let uniform_quota = Array.make n_templates 1

(* serve-mixed: Zipf(s=1) over a permutation of the templates, rounded to a
   60-request block (rank r gets round(56 / (H_28 r)) requests, at least
   one).  The permutation is seeded by a constant, not by --seed: which
   template is hottest decides most of a Zipf mix's cost, and a per-seed
   hot set would make the figures of two seeds incomparable. *)
let zipf_quota =
  let st = Random.State.make [| 2015 |] in
  let order = Array.init n_templates Fun.id in
  shuffle st order;
  let h = ref 0.0 in
  for r = 1 to n_templates do
    h := !h +. (1.0 /. float_of_int r)
  done;
  let quota = Array.make n_templates 0 in
  Array.iteri
    (fun r i ->
      quota.(i) <-
        max 1 (Float.to_int (Float.round (56.0 /. (!h *. float_of_int (r + 1))))))
    order;
  quota

(* One connection's request stream, seeded by (--seed, connection). *)
type schedule = {
  st : Random.State.t;
  quota : int array;
  mutable block : int array;
  mutable pos : int;
}

let schedule quota ~seed ~conn =
  { st = Random.State.make [| seed; conn; 0x5eed |]; quota; block = [||]; pos = 0 }

let next s =
  if s.pos >= Array.length s.block then begin
    s.block <-
      Array.concat (Array.to_list (Array.mapi (fun i n -> Array.make n i) s.quota));
    shuffle s.st s.block;
    s.pos <- 0
  end;
  s.pos <- s.pos + 1;
  s.block.(s.pos - 1)

(* ---- answer digests ---- *)

(* A digest of decoded answer rows in exactly the wire rendering the
   server sends (tab-separated escaped terms, dot-stuffed, one row per
   line), so an in-process reference and a response payload compare
   directly. *)
let rows_digest (rows : Rdf.Term.t list list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun row ->
      Buffer.add_string b
        (Server.Protocol.stuff
           (Server.Protocol.encode_row (List.map Rdf.Term.to_string row)));
      Buffer.add_char b '\n')
    rows;
  Digest.string (Buffer.contents b)

(* Reference digests of every template, answered under saturation (an
   evaluation path that shares no reformulation or cover code with the
   GCov answers under test) on a store of its own. *)
let reference_digests store =
  let sys = Rqa.Answering.make store in
  Array.map
    (fun (_, text) ->
      rows_digest
        (Rqa.Answering.answer_terms sys Rqa.Answering.Saturation
           (Query.Sparql.parse text)))
    templates

(* ---- samples ---- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Linear-interpolated quantile of a sample; nan when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The read-latency tail reported, p98: a percentile that keeps at least
   ten samples beyond it on every workload, with a margin.  In a 40-second
   window lubm-cold and serve-mixed complete 1,200 to 1,500 reads, so a p99
   would rest on barely ten on a slower host. *)
let tail = 0.98

(* Per-template read counts and median latencies (stderr): where a run's
   time went, for reading a surprising figure. *)
let log_templates by_template =
  Array.iteri
    (fun i (name, _) ->
      let a = by_template.(i) in
      if Array.length a > 0 then
        log "%s: %d reads, median %.3f ms" name (Array.length a) (median a))
    templates

(* States the sample counts behind a run's latency figures (stderr). *)
let log_samples workload ~reads ~writes =
  let n = Array.length reads in
  let beyond = n - int_of_float (Float.ceil (tail *. float_of_int n)) in
  log "%s: %d read samples (%d beyond p98), %d write samples" workload n
    beyond writes;
  if beyond < 10 then log "%s: fewer than 10 samples beyond p98" workload

(* Tracing overhead in percent: the traced over the untraced latency,
   minus one, from per-template medians so that the template mix of the
   two halves of a window cancels out.  Arrays are indexed by template. *)
let overhead_pct ~untraced ~traced =
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i u ->
      if Array.length u > 0 && Array.length traced.(i) > 0 then begin
        num := !num +. median traced.(i);
        den := !den +. median u
      end)
    untraced;
  if !den > 0. then 100. *. ((!num /. !den) -. 1.) else 0.

(* A failed request misses every latency limit: it enters the latency
   sample as this value, so failures show in the tail quantiles. *)
let failure_latency_ms = 1e9

(* ---- results ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  counts : (string * string) list;
      (** deterministic counts, compared by the self-test *)
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_json r =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
      unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
            | _ -> scan ()
          in
          scan ())

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Server processes started and not yet stopped, so that a signal ending
   the benchmark can stop them first. *)
let children : int list ref = ref []
