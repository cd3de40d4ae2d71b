(* A fixed pool of worker domains with an atomic work-stealing index.

   One job at a time: the submitting domain publishes a [task] under the
   mutex (bumping [seq] so sleeping workers can tell it from the previous
   job), participates in draining it, then blocks until every index has
   been processed.  Workers sleep on [work] between jobs.  Indexes are
   handed out by [Atomic.fetch_and_add] in chunks, so load balancing needs
   no per-task queueing and the only synchronization on the fast path is
   one atomic add per chunk plus one per finished index. *)

type task = {
  run : int -> unit;  (* must not raise: wrapped by the submitter *)
  n : int;
  chunk : int;
  next : int Atomic.t;  (* next index block to hand out *)
  completed : int Atomic.t;  (* indexes fully processed *)
}

type t = {
  width : int;  (* effective width after the core clamp *)
  requested : int;  (* width the caller asked for *)
  m : Mutex.t;
  work : Condition.t;  (* a new job was published, or [stop] was set *)
  finished : Condition.t;  (* a job's last index completed *)
  mutable seq : int;  (* job generation, guarded by [m] *)
  mutable task : task option;  (* guarded by [m] *)
  mutable stop : bool;  (* guarded by [m] *)
  busy : bool Atomic.t;  (* a job is in flight: reentrant calls run inline *)
  mutable domains : unit Domain.t list;
}

let jobs t = t.width
let requested_jobs t = t.requested

let force_jobs () =
  match Sys.getenv_opt "RDFQA_JOBS_FORCE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* Widths above the core count cannot win: domains time-slice and every
   minor collection synchronizes all of them.  Clamp unless the user
   explicitly forces oversubscription (RDFQA_JOBS_FORCE=1). *)
let clamp_width requested =
  let requested = max 1 requested in
  if force_jobs () then requested
  else min requested (max 1 (Domain.recommended_domain_count ()))

let drain pool task =
  let rec loop () =
    let start = Atomic.fetch_and_add task.next task.chunk in
    if start < task.n then begin
      let stop = min task.n (start + task.chunk) in
      for i = start to stop - 1 do
        task.run i;
        Atomic.incr task.completed
      done;
      loop ()
    end
  in
  loop ();
  (* Whoever processed the last index wakes the submitter.  The check and
     the submitter's wait are both under [m], so the wake-up cannot slip
     between its test and its sleep. *)
  if Atomic.get task.completed >= task.n then begin
    Mutex.lock pool.m;
    Condition.broadcast pool.finished;
    Mutex.unlock pool.m
  end

let worker_loop pool =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.seq = !seen do
      Condition.wait pool.work pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      seen := pool.seq;
      let task = pool.task in
      Mutex.unlock pool.m;
      (match task with Some tk -> drain pool tk | None -> ());
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let requested = max 1 jobs in
  let width = clamp_width requested in
  let pool =
    {
      width;
      requested;
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      seq = 0;
      task = None;
      stop = false;
      busy = Atomic.make false;
      domains = [];
    }
  in
  if width > 1 then
    pool.domains <-
      List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* Runs [n] indexes through [run] across the pool and waits for all of
   them.  [run] must not raise (the map wrapper catches per task). *)
let run_job pool ~n ~chunk run =
  let task =
    { run; n; chunk; next = Atomic.make 0; completed = Atomic.make 0 }
  in
  Mutex.lock pool.m;
  pool.seq <- pool.seq + 1;
  pool.task <- Some task;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  drain pool task;
  Mutex.lock pool.m;
  while Atomic.get task.completed < n do
    Condition.wait pool.finished pool.m
  done;
  pool.task <- None;
  Mutex.unlock pool.m

(* Process-level pool metrics (lib/metrics): recording is a no-op while
   metrics are disabled, so the map fast path keeps its shape. *)
let m_parallel = Metrics.counter "pool.parallel_runs" ~help:"Maps fanned out across worker domains"
let m_sequential = Metrics.counter "pool.sequential_runs" ~help:"Maps run sequentially (width 1 or single element)"
let m_inline = Metrics.counter "pool.inline_fallbacks" ~help:"Reentrant maps run inline because a job was in flight"
let m_tasks = Metrics.counter "pool.tasks" ~help:"Indexes dispatched to the domain pool"
let g_width = Metrics.gauge "pool.width" ~help:"Effective pool width after the core clamp"
let g_requested = Metrics.gauge "pool.requested" ~help:"Requested pool width"

let parallel_map ?(chunk = 1) pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.width <= 1 || n = 1 then begin
    Metrics.add m_sequential 1;
    Array.map f xs
  end
  else if not (Atomic.compare_and_set pool.busy false true) then begin
    Metrics.add m_inline 1;
    Array.map f xs
  end
  else begin
    Metrics.add m_parallel 1;
    Metrics.add m_tasks n;
    Fun.protect
      ~finally:(fun () -> Atomic.set pool.busy false)
      (fun () ->
        let results = Array.make n None in
        let failure = Atomic.make (-1) in
        let exns = Array.make n None in
        run_job pool ~n ~chunk:(max 1 chunk) (fun i ->
            match f xs.(i) with
            | v -> results.(i) <- Some v
            | exception e ->
                exns.(i) <- Some e;
                (* Remember the smallest failing index, so the exception a
                   caller sees is the one sequential left-to-right
                   execution would have raised first. *)
                let rec min_in cur =
                  if (cur = -1 || i < cur)
                     && not (Atomic.compare_and_set failure cur i)
                  then min_in (Atomic.get failure)
                in
                min_in (Atomic.get failure));
        match Atomic.get failure with
        | -1 ->
            Array.map
              (function Some v -> v | None -> assert false)
              results
        | i -> ( match exns.(i) with Some e -> raise e | None -> assert false))
  end

let parallel_fold ?chunk pool ~map ~fold ~init xs =
  Array.fold_left fold init (parallel_map ?chunk pool map xs)

(* ---- process-global pool ---- *)

let recommended_jobs () = Domain.recommended_domain_count ()

let env_jobs () =
  match Sys.getenv_opt "RDFQA_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> 1)

let glock = Mutex.create ()
let requested = ref None
let global = ref None
let exit_hook = ref false

let current_jobs () =
  match !requested with Some j -> j | None -> env_jobs ()

let effective_jobs () = clamp_width (current_jobs ())

let set_jobs j =
  Mutex.lock glock;
  requested := Some (max 1 j);
  Mutex.unlock glock

let get () =
  Mutex.lock glock;
  let width = match !requested with Some j -> j | None -> env_jobs () in
  let pool =
    match !global with
    | Some p when p.requested = width -> p
    | prev ->
        (match prev with Some p -> shutdown p | None -> ());
        let p = create ~jobs:width in
        global := Some p;
        if not !exit_hook then begin
          exit_hook := true;
          (* Workers block on a condition variable between jobs; join them
             before process teardown so no domain outlives the runtime. *)
          at_exit (fun () ->
              Mutex.lock glock;
              let p = !global in
              global := None;
              Mutex.unlock glock;
              match p with Some p -> shutdown p | None -> ())
        end;
        p
  in
  Mutex.unlock glock;
  Metrics.set_gauge g_width (float_of_int pool.width);
  Metrics.set_gauge g_requested (float_of_int pool.requested);
  pool

let shutdown_global () =
  Mutex.lock glock;
  let p = !global in
  global := None;
  Mutex.unlock glock;
  match p with Some p -> shutdown p | None -> ()
