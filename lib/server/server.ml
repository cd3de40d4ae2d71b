module Protocol = Protocol
module Es = Store.Encoded_store
module Epoch = Store.Epoch
module Bgp = Query.Bgp

type config = {
  host : string;
  port : int;
  strategy : Rqa.Answering.strategy;
  profile : Engine.Profile.t;
  cache_mode : Cache.mode;
  budget : int option;
  warm : Query.Bgp.t list;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    strategy = Rqa.Answering.Gcov;
    profile = Engine.Profile.postgres_like;
    cache_mode = Cache.On;
    budget = None;
    warm = [];
  }

(* Process-level serving metrics.  Registered at module initialization,
   so any binary linking the server exports the families zero-valued —
   the `rdfqa stats --prom` + validate_metrics --require contract. *)
let c_connections =
  Metrics.counter "server.connections" ~help:"Client connections accepted"
let c_requests =
  Metrics.counter "server.requests" ~help:"Requests served (OK and ERR)"
let c_errors = Metrics.counter "server.errors" ~help:"Requests answered with ERR"
let c_rejected =
  Metrics.counter "server.rejected" ~help:"Queries refused by cost admission"
let c_writes =
  Metrics.counter "server.writes" ~help:"INSERT/DELETE requests applied"

type t = {
  store : Es.t;
  cache : Cache.t;
  ep : Epoch.t;
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* the system the boot warm-up ran on; write sections reuse it to
     re-warm after schema changes *)
  warm_sys : Rqa.Answering.system;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;
  served : int Atomic.t;
  lock : Mutex.t;
  wire_lock : Mutex.t;
  mutable wire : string array;
      (* slot c: code c's escaped wire form, [""] until first rendered *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_threads : Thread.t list;
  mutable conn_seq : int;
  mutable accept_thread : Thread.t option;
  mutable drained : bool;
}

(* The server the [server.inflight] and [server.epoch] gauges read: the
   last one started.  Sampled at scrape time, so no request pushes them. *)
let serving : t option Atomic.t = Atomic.make None

let () =
  let sampled name help f =
    Metrics.sample ~help name (fun () ->
        match Atomic.get serving with
        | Some t -> float_of_int (f t)
        | None -> 0.0)
  in
  sampled "server.inflight" "Requests currently executing" (fun t ->
      Atomic.get t.inflight);
  sampled "server.epoch" "Store epoch (completed write sections)" (fun t ->
      Epoch.epoch t.ep)

let port t = t.bound_port
let epoch t = t.ep
let requests_served t = Atomic.get t.served

(* ---- request handling ---- *)

let load_triples path =
  let g =
    if Filename.check_suffix path ".ttl" then Rdf.Turtle.load_file path
    else Rdf.Ntriples.load_file path
  in
  List.map Rdf.Schema.constr_to_triple
    (Rdf.Schema.constraints (Rdf.Graph.schema g))
  @ Rdf.Graph.fact_list g

(* ---- the answer path: codes to the wire ---- *)

(* Responses stream through the connection's out_channel, whose fixed
   64 KB buffer goes to the socket each time it fills, so no buffer ever
   holds a whole payload. *)
let respond oc status payload =
  output_string oc status;
  output_char oc '\n';
  List.iter (Protocol.output_line oc) payload;
  Protocol.output_terminator oc;
  flush oc

(* The wire forms of every code in [order]'s rows, rendering the missing
   ones.  Each code is rendered at most once per server lifetime, and all
   connections share the table.  Slots are written once and growth copies
   into a fresh array, so the array returned stays complete for the
   caller while other connections render more.  Saturated stores share
   the store's dictionary, so one table serves every strategy. *)
let wire_forms t rel order =
  Mutex.protect t.wire_lock @@ fun () ->
  let decode = Rdf.Dictionary.decoder (Es.dictionary t.store) in
  Array.iter
    (fun i ->
      for k = 0 to Engine.Relation.cols rel - 1 do
        let c = Engine.Relation.get rel i k in
        if c >= Array.length t.wire then begin
          let a = Array.make (max (c + 1) (2 * Array.length t.wire)) "" in
          Array.blit t.wire 0 a 0 (Array.length t.wire);
          t.wire <- a
        end;
        if t.wire.(c) = "" then
          t.wire.(c) <- Protocol.escape (Rdf.Term.to_string (decode c))
      done)
    order;
  t.wire

(* A read's response: [order]'s rows, each field's wire form copied
   straight from [forms]. *)
let respond_rows oc status forms rel order =
  output_string oc status;
  output_char oc '\n';
  let w = Engine.Relation.cols rel in
  let output_row = Protocol.output_row oc in
  Array.iter
    (fun i -> output_row w (fun k -> forms.(Engine.Relation.get rel i k)))
    order;
  Protocol.output_terminator oc;
  flush oc

let err oc msg =
  Metrics.add c_errors 1;
  (* keep ERR on one line whatever the exception rendered to *)
  let msg =
    String.map (function '\n' | '\r' -> ' ' | c -> c) msg
  in
  respond oc ("ERR " ^ msg) []

(* True when compiling [q] would dictionary-encode a new term.  After the
   boot warm-up every reformulation-introduced constant (schema vocabulary)
   is already interned, so only ad-hoc constants can be missing — and those
   are interned under a write section before the query's read section,
   keeping the dictionary immutable while any reader is pinned. *)
let needs_intern store (q : Bgp.t) =
  let missing = function
    | Bgp.Var _ -> false
    | Bgp.Const c -> Es.encode_term store c = None
  in
  List.exists missing q.Bgp.head
  || List.exists
       (fun (a : Bgp.atom) -> missing a.s || missing a.p || missing a.o)
       q.Bgp.body

(* Static cost admission for one request: check the SCQ-cover JUCQ (the
   same statement `rdfqa check --cost` admits) against the configured
   budget, without arming the global Cost_verify switch — cover choice and
   charge totals stay untouched.  Over-capacity reformulations are left to
   the engine's own refusal path. *)
let admission_error t sys q =
  match t.config.budget with
  | None -> None
  | Some budget -> (
      match Rqa.Answering.scq_statement sys q with
      | None -> None
      | Some j -> (
          let oracle = Engine.Executor.cost_oracle (Rqa.Answering.engine sys) in
          let diags =
            Analysis.Cost_verify.admission oracle ~budget ~context:"server"
              (Analysis.Cost_verify.Jucq j)
          in
          match Analysis.Diagnostic.errors diags with
          | [] -> None
          | d :: _ -> Some (Analysis.Diagnostic.to_string d)))

let handle_query t sys oc strategy_name text =
  let strategy =
    match strategy_name with
    | None -> Some t.config.strategy
    | Some s -> List.assoc_opt s Rqa.Answering.strategies
  in
  match strategy with
  | None -> err oc ("unknown strategy: " ^ Option.get strategy_name)
  | Some strategy -> (
      match Query.Sparql.parse text with
      | exception (Invalid_argument m | Failure m) -> err oc ("bad query: " ^ m)
      | q -> (
          let q = Bgp.normalize q in
          let engine = Rqa.Answering.engine sys in
          (* intern ad-hoc constants writer-exclusively, before pinning *)
          if needs_intern t.store q then
            Epoch.write t.ep (fun () ->
                Engine.Executor.intern_constants engine q);
          Epoch.read t.ep @@ fun pinned ->
          match admission_error t sys q with
          | Some msg ->
              Metrics.add c_rejected 1;
              err oc ("rejected: " ^ msg)
          | None -> (
              match Rqa.Answering.answer sys strategy q with
              | r ->
                  (* ordering and rendering finish before the status line,
                     so an ERR never lands inside a payload; an answer
                     tier hit reuses the order its miss computed *)
                  let rel = r.Rqa.Answering.answers in
                  let order = Rqa.Answering.order sys r in
                  let forms = wire_forms t rel order in
                  let status =
                    Printf.sprintf
                      "OK rows=%d union_terms=%d epoch=%d sv=%d dv=%d \
                       planning_ms=%.2f execution_ms=%.2f"
                      (Array.length order) r.Rqa.Answering.union_terms pinned
                      (Es.schema_version t.store) (Es.data_version t.store)
                      r.Rqa.Answering.planning_ms r.Rqa.Answering.execution_ms
                  in
                  respond_rows oc status forms rel order
              | exception Engine.Profile.Engine_failure { engine; reason } ->
                  err oc
                    (Printf.sprintf "engine failure (%s): %s" engine
                       (Engine.Profile.failure_to_string reason)))))

let handle_update t oc ~insert path =
  match load_triples path with
  | exception Sys_error m -> err oc ("cannot read " ^ path ^ ": " ^ m)
  | exception (Invalid_argument m | Failure m) ->
      err oc ("cannot parse " ^ path ^ ": " ^ m)
  | triples ->
      let s, d =
        Epoch.write t.ep (fun () ->
            let s, d =
              if insert then Es.insert_triples t.store triples
              else Es.delete_triples t.store triples
            in
            (* schema moved: new vocabulary may appear in reformulations,
               so re-intern it while readers are still excluded *)
            if s > 0 then Rqa.Answering.warm_up t.warm_sys t.config.warm;
            (s, d))
      in
      Metrics.add c_writes 1;
      respond oc
        (Printf.sprintf "OK schema=%d data=%d epoch=%d sv=%d dv=%d" s d
           (Epoch.epoch t.ep) (Es.schema_version t.store)
           (Es.data_version t.store))
        []

let stats_lines t =
  [
    Printf.sprintf "epoch=%d" (Epoch.epoch t.ep);
    Printf.sprintf "active_readers=%d" (Epoch.active_readers t.ep);
    Printf.sprintf "waiting_writers=%d" (Epoch.waiting_writers t.ep);
    Printf.sprintf "reads=%d" (Epoch.reads t.ep);
    Printf.sprintf "writes=%d" (Epoch.writes t.ep);
    Printf.sprintf "requests=%d" (Atomic.get t.served);
    Printf.sprintf "inflight=%d" (Atomic.get t.inflight);
    Printf.sprintf "triples=%d" (Es.size t.store);
    Printf.sprintf "schema_version=%d" (Es.schema_version t.store);
    Printf.sprintf "data_version=%d" (Es.data_version t.store);
    Printf.sprintf "jobs=%d" (Par.effective_jobs ());
    Printf.sprintf "cache=%s" (Cache.stats_to_string (Cache.stats t.cache));
  ]

(* One request; returns [false] when the connection should close. *)
let handle_line t sys oc line =
  Atomic.incr t.inflight;
  Metrics.add c_requests 1;
  Atomic.incr t.served;
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.inflight)
    (fun () ->
      match Protocol.parse_request line with
      | Error msg ->
          err oc msg;
          true
      | Ok (Protocol.Query { strategy; text }) ->
          handle_query t sys oc strategy text;
          true
      | Ok (Protocol.Insert path) ->
          handle_update t oc ~insert:true path;
          true
      | Ok (Protocol.Delete path) ->
          handle_update t oc ~insert:false path;
          true
      | Ok Protocol.Stats ->
          respond oc "OK" (stats_lines t);
          true
      | Ok Protocol.Prom ->
          respond oc "OK" (String.split_on_char '\n' (Metrics.to_prometheus ()));
          true
      | Ok Protocol.Ping ->
          respond oc "OK pong" [];
          true
      | Ok Protocol.Quit ->
          respond oc "OK bye" [];
          false)

(* ---- connection lifecycle ---- *)

let rec conn_loop t sys ic oc =
  if Atomic.get t.stopping then ()
  else
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let continue =
          try handle_line t sys oc line
          with
          | Sys_error _ -> false (* peer went away mid-response *)
          | e ->
              (try err oc ("internal error: " ^ Printexc.to_string e)
               with _ -> ());
              true
        in
        if continue then conn_loop t sys ic oc

let client_main t id fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.lock;
      Hashtbl.remove t.conns id;
      Mutex.unlock t.lock)
    (fun () ->
      (* build the per-connection system inside a read section: [make]
         snapshots store statistics and must not race a writer *)
      let sys =
        Epoch.read t.ep (fun _ ->
            Rqa.Answering.make ~profile:t.config.profile ~cache:t.cache
              t.store)
      in
      conn_loop t sys ic oc)

(* Waits in [select] with a short timeout rather than parking in [accept]:
   a bare [accept] cannot be woken portably (Linux [shutdown] on a
   listening socket fails with ENOTCONN, [close] from another thread does
   not interrupt it), so the loop polls the stop flag between waits. *)
let accept_loop t =
  let continue = ref true in
  while !continue && not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.1 with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.listen_fd with
        | exception
            Unix.Unix_error
              ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
            continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | fd, _ ->
            (* responses leave in whole buffers and end with a flush, so
               Nagle's algorithm only adds latency: a response tail held
               back for the delayed ACK of the chunk before it *)
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Metrics.add c_connections 1;
            Mutex.lock t.lock;
            let id = t.conn_seq in
            t.conn_seq <- id + 1;
            Hashtbl.replace t.conns id fd;
            let th = Thread.create (fun () -> client_main t id fd) () in
            t.conn_threads <- th :: t.conn_threads;
            Mutex.unlock t.lock)
  done

(* ---- lifecycle ---- *)

let start config store =
  (* a client closing mid-response must surface as Sys_error, not kill
     the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let cache = Cache.create ~mode:config.cache_mode store in
  let warm_sys = Rqa.Answering.make ~profile:config.profile ~cache store in
  Rqa.Answering.warm_up warm_sys config.warm;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let bound_port =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen listen_fd 64;
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> config.port
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  let t =
    {
      store;
      cache;
      ep = Epoch.create ();
      config;
      listen_fd;
      bound_port;
      warm_sys;
      stopping = Atomic.make false;
      inflight = Atomic.make 0;
      served = Atomic.make 0;
      lock = Mutex.create ();
      wire_lock = Mutex.create ();
      wire = [||];
      conns = Hashtbl.create 16;
      conn_threads = [];
      conn_seq = 0;
      accept_thread = None;
      drained = false;
    }
  in
  Es.publish_metrics store;
  Atomic.set serving (Some t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    (* shutdown (not close) reliably wakes a thread blocked in [accept];
       the descriptor itself is closed by [stop] after the join *)
    try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()

let wait t =
  (* Poll instead of parking in [Thread.join]: [Thread.delay] gives the
     runtime regular safepoints, so a signal handler calling
     {!request_stop} executes even while every other thread blocks in a
     system call. *)
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05
  done;
  match t.accept_thread with Some th -> Thread.join th | None -> ()

let stop t =
  request_stop t;
  wait t;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  let drain =
    Mutex.lock t.lock;
    let first = not t.drained in
    t.drained <- true;
    let threads = t.conn_threads in
    t.conn_threads <- [];
    (* half-close: blocked readers see EOF; in-flight responses still
       flush through the send side *)
    if first then
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns;
    Mutex.unlock t.lock;
    threads
  in
  List.iter Thread.join drain
