(* Process-level metrics registry.  See metrics.mli for the contract; the
   shape to preserve when editing:

   - recording while disabled must stay a single boolean test (the
     charge-invariance test in test/test_metrics.ml depends on it);
   - counters are atomics and histograms lock per-observe, because the
     workload driver runs whole queries on worker domains;
   - histogram geometry is a module-level constant so snapshots taken at
     different times (or in different processes) merge bucket-by-bucket. *)

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

(* --- histograms ---------------------------------------------------------- *)

module Histogram = struct
  (* Log-linear buckets: [sub] linear sub-buckets per power-of-two octave,
     [octaves] octaves starting at 1.0, plus a [0,1) underflow bucket in
     front and an unbounded overflow bucket behind.  With sub = 8 the
     relative width of any finite bucket is <= 1/8, which bounds the
     quantile estimation error; 40 octaves cover values up to 2^40 —
     comfortably past any ms latency or byte size we record. *)
  let sub_buckets = 8
  let octaves = 40
  let nbuckets = 1 + (octaves * sub_buckets) + 1
  let overflow = nbuckets - 1
  let subf = float_of_int sub_buckets

  let bucket_index v =
    if v < 1.0 then 0
    else
      let _, e = Float.frexp v in
      (* frexp: v = m * 2^e with m in [0.5, 1), so 2^(e-1) <= v < 2^e *)
      let oct = e - 1 in
      if oct >= octaves then overflow
      else
        let lo = Float.ldexp 1.0 oct in
        let s = int_of_float ((v /. lo -. 1.0) *. subf) in
        let s = if s < 0 then 0 else if s >= sub_buckets then sub_buckets - 1 else s in
        1 + (oct * sub_buckets) + s

  let bucket_bounds i =
    if i <= 0 then (0.0, 1.0)
    else if i >= overflow then (Float.ldexp 1.0 octaves, infinity)
    else
      let oct = (i - 1) / sub_buckets and s = (i - 1) mod sub_buckets in
      let base = Float.ldexp 1.0 oct in
      ( base *. (1.0 +. (float_of_int s /. subf)),
        base *. (1.0 +. (float_of_int (s + 1) /. subf)) )

  type t = {
    lock : Mutex.t;
    counts : int array;
    mutable n : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    {
      lock = Mutex.create ();
      counts = Array.make nbuckets 0;
      n = 0;
      total = 0.0;
      vmin = infinity;
      vmax = neg_infinity;
    }

  let clear t =
    Mutex.lock t.lock;
    Array.fill t.counts 0 nbuckets 0;
    t.n <- 0;
    t.total <- 0.0;
    t.vmin <- infinity;
    t.vmax <- neg_infinity;
    Mutex.unlock t.lock

  let observe t v =
    let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
    let i = bucket_index v in
    Mutex.lock t.lock;
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v;
    Mutex.unlock t.lock

  let copy t =
    Mutex.lock t.lock;
    let c =
      {
        lock = Mutex.create ();
        counts = Array.copy t.counts;
        n = t.n;
        total = t.total;
        vmin = t.vmin;
        vmax = t.vmax;
      }
    in
    Mutex.unlock t.lock;
    c

  let count t = t.n
  let sum t = t.total
  let min_value t = if t.n = 0 then 0.0 else t.vmin
  let max_value t = if t.n = 0 then 0.0 else t.vmax
  let bucket_count t i = if i < 0 || i >= nbuckets then 0 else t.counts.(i)

  let quantile t q =
    if t.n = 0 then 0.0
    else
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
      let rec walk i acc =
        if i >= nbuckets then max_value t
        else
          let acc = acc + t.counts.(i) in
          if acc >= rank then
            (* The rank-th order statistic lies in bucket i; its upper
               bound over-estimates by at most one bucket width, and
               clamping to the observed max keeps the overflow bucket
               finite without leaving the bucket. *)
            let _, hi = bucket_bounds i in
            Float.min hi (max_value t)
          else walk (i + 1) acc
      in
      walk 0 0

  let merge a b =
    let a = copy a and b = copy b in
    let m = create () in
    for i = 0 to nbuckets - 1 do
      m.counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    m.n <- a.n + b.n;
    m.total <- a.total +. b.total;
    m.vmin <- Float.min a.vmin b.vmin;
    m.vmax <- Float.max a.vmax b.vmax;
    m

  let cumulative t =
    let acc = ref 0 and out = ref [] in
    for i = 0 to nbuckets - 1 do
      if t.counts.(i) > 0 then begin
        acc := !acc + t.counts.(i);
        let _, hi = bucket_bounds i in
        if hi < infinity then out := (hi, !acc) :: !out
      end
    done;
    List.rev !out
end

(* --- the registry -------------------------------------------------------- *)

type counter = { c_help : string; c : int Atomic.t }
type gauge = { g_help : string; g : float Atomic.t }
type histogram = { h_help : string; h : Histogram.t }

type entry =
  | E_counter of counter
  | E_gauge of gauge
  | E_sampled of string * (unit -> float)  (* help, sampler *)
  | E_histogram of histogram

(* Registration is rare (module init, CLI startup) and never on a hot
   path, so one mutex over a plain Hashtbl is enough. *)
let reg_lock = Mutex.create ()
let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let with_reg f =
  Mutex.lock reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_lock) f

let kind_of = function
  | E_counter _ -> "counter"
  | E_gauge _ | E_sampled _ -> "gauge"
  | E_histogram _ -> "histogram"

let register name entry extract =
  with_reg (fun () ->
      match Hashtbl.find_opt registry name with
      | Some e -> (
          match extract e with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as a %s" name
                   (kind_of e)))
      | None ->
          let e = entry () in
          Hashtbl.replace registry name e;
          match extract e with
          | Some v -> v
          | None -> assert false)

let counter ?(help = "") name =
  register name
    (fun () -> E_counter { c_help = help; c = Atomic.make 0 })
    (function E_counter c -> Some c | _ -> None)

let add c n = if Atomic.get on && n > 0 then ignore (Atomic.fetch_and_add c.c n)
let counter_value c = Atomic.get c.c

let gauge ?(help = "") name =
  register name
    (fun () -> E_gauge { g_help = help; g = Atomic.make 0.0 })
    (function E_gauge g -> Some g | _ -> None)

let set_gauge g v = if Atomic.get on then Atomic.set g.g v

let sample ?(help = "") name f =
  with_reg (fun () ->
      (match Hashtbl.find_opt registry name with
      | None | Some (E_sampled _) -> ()
      | Some e ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_of e)));
      Hashtbl.replace registry name (E_sampled (help, f)))

let install_gc_samplers () =
  sample ~help:"Minor GC collections since process start" "gc.minor_collections"
    (fun () -> float_of_int (Gc.quick_stat ()).Gc.minor_collections);
  sample ~help:"Major GC collection cycles since process start"
    "gc.major_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections);
  sample ~help:"Words in the major heap" "gc.heap_words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words);
  sample ~help:"Heap compactions since process start" "gc.compactions"
    (fun () -> float_of_int (Gc.quick_stat ()).Gc.compactions)

let histogram ?(help = "") name =
  register name
    (fun () ->
      E_histogram { h_help = help; h = Histogram.create () })
    (function E_histogram h -> Some h | _ -> None)

let observe h v = if Atomic.get on then Histogram.observe h.h v

let reset () =
  with_reg (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e with
          | E_counter c -> Atomic.set c.c 0
          | E_gauge g -> Atomic.set g.g 0.0
          | E_sampled _ -> ()
          | E_histogram h -> Histogram.clear h.h)
        registry)

(* --- snapshots and exporters --------------------------------------------- *)

type value = Counter of int | Gauge of float | Hist of Histogram.t
type metric = { name : string; help : string; value : value }

let snapshot () =
  let entries =
    with_reg (fun () ->
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) registry [])
  in
  entries
  |> List.map (fun (name, e) ->
         match e with
         | E_counter c ->
             { name; help = c.c_help; value = Counter (Atomic.get c.c) }
         | E_gauge g -> { name; help = g.g_help; value = Gauge (Atomic.get g.g) }
         | E_sampled (help, f) -> { name; help; value = Gauge (f ()) }
         | E_histogram h ->
             { name; help = h.h_help; value = Hist (Histogram.copy h.h) })
  |> List.sort (fun a b -> compare a.name b.name)

(* Prometheus exposition wants finite decimal floats; %.17g round-trips
   doubles and never prints a locale-dependent separator. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let prom_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "rdfqa_";
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b ch
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_help b name help ty =
  let help = if help = "" then name else help in
  Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty)

let to_prometheus () =
  let b = Buffer.create 4096 in
  List.iter
    (fun m ->
      match m.value with
      | Counter v ->
          let n = prom_name m.name ^ "_total" in
          prom_help b n m.help "counter";
          Buffer.add_string b (Printf.sprintf "%s %d\n" n v)
      | Gauge v ->
          let n = prom_name m.name in
          prom_help b n m.help "gauge";
          Buffer.add_string b (Printf.sprintf "%s %s\n" n (fnum v))
      | Hist h ->
          let n = prom_name m.name in
          prom_help b n m.help "histogram";
          List.iter
            (fun (le, c) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (fnum le) c))
            (Histogram.cumulative h);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h));
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" n (fnum (Histogram.sum h)));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" n (Histogram.count h)))
    (snapshot ());
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no Inf/NaN; non-finite gauges (never produced by histograms,
   whose min/max are 0 when empty) degrade to a sentinel. *)
let jnum v = if Float.is_finite v then fnum v else "-1"

let to_jsonl () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "{\"type\":\"meta\",\"schema\":1,\"generator\":\"rdfqa-metrics\"}\n";
  List.iter
    (fun m ->
      (match m.value with
      | Counter v ->
          Buffer.add_string b
            (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}"
               (json_escape m.name) v)
      | Gauge v ->
          Buffer.add_string b
            (Printf.sprintf "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s}"
               (json_escape m.name) (jnum v))
      | Hist h ->
          let buckets =
            Histogram.cumulative h
            |> List.map (fun (le, c) ->
                   Printf.sprintf "{\"le\":%s,\"count\":%d}" (jnum le) c)
            |> String.concat ","
          in
          Buffer.add_string b
            (Printf.sprintf
               "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum\":%s,\
                \"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\
                \"buckets\":[%s]}"
               (json_escape m.name) (Histogram.count h)
               (jnum (Histogram.sum h))
               (jnum (Histogram.min_value h))
               (jnum (Histogram.max_value h))
               (jnum (Histogram.quantile h 0.50))
               (jnum (Histogram.quantile h 0.90))
               (jnum (Histogram.quantile h 0.99))
               buckets));
      Buffer.add_char b '\n')
    (snapshot ());
  Buffer.contents b

let to_text () =
  let b = Buffer.create 2048 in
  List.iter
    (fun m ->
      match m.value with
      | Counter v -> Buffer.add_string b (Printf.sprintf "%-34s %d\n" m.name v)
      | Gauge v ->
          Buffer.add_string b (Printf.sprintf "%-34s %s\n" m.name (fnum v))
      | Hist h ->
          if Histogram.count h = 0 then
            Buffer.add_string b (Printf.sprintf "%-34s (empty)\n" m.name)
          else
            Buffer.add_string b
              (Printf.sprintf
                 "%-34s count=%d sum=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f\n"
                 m.name (Histogram.count h) (Histogram.sum h)
                 (Histogram.quantile h 0.50)
                 (Histogram.quantile h 0.90)
                 (Histogram.quantile h 0.99)
                 (Histogram.max_value h)))
    (snapshot ());
  Buffer.contents b
