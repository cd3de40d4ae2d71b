(* Writer-preference drain coordination.  The store mutates in place, so
   snapshot isolation here means: no mutation while any reader is pinned.
   Readers admit under [no writer active or waiting]; a writer first wins
   the writer baton, then waits for the pinned epoch to drain (active = 0),
   mutates, bumps the epoch, and releases.
   All state sits behind one mutex; the two condition variables separate
   "a writer finished" (wakes readers and the next writer) from "the last
   reader left" (wakes the draining writer). *)

type t = {
  m : Mutex.t;
  turn : Condition.t;     (* writer released: readers / next writer go *)
  drained : Condition.t;  (* last pinned reader left *)
  mutable cur_epoch : int;
  mutable active : int;         (* readers inside a section *)
  mutable writer_active : bool;
  mutable writers_queued : int; (* writers admitted or waiting *)
  mutable n_reads : int;
  mutable n_writes : int;
}

let create () =
  {
    m = Mutex.create ();
    turn = Condition.create ();
    drained = Condition.create ();
    cur_epoch = 0;
    active = 0;
    writer_active = false;
    writers_queued = 0;
    n_reads = 0;
    n_writes = 0;
  }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let epoch t = with_lock t (fun () -> t.cur_epoch)
let active_readers t = with_lock t (fun () -> t.active)
let waiting_writers t =
  with_lock t (fun () -> t.writers_queued + if t.writer_active then 1 else 0)
let reads t = with_lock t (fun () -> t.n_reads)
let writes t = with_lock t (fun () -> t.n_writes)

let read t f =
  Mutex.lock t.m;
  while t.writer_active || t.writers_queued > 0 do
    Condition.wait t.turn t.m
  done;
  t.active <- t.active + 1;
  let pinned = t.cur_epoch in
  Mutex.unlock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      t.active <- t.active - 1;
      t.n_reads <- t.n_reads + 1;
      if t.active = 0 then Condition.broadcast t.drained;
      Mutex.unlock t.m)
    (fun () -> f pinned)

let write t f =
  Mutex.lock t.m;
  t.writers_queued <- t.writers_queued + 1;
  while t.writer_active do
    Condition.wait t.turn t.m
  done;
  t.writers_queued <- t.writers_queued - 1;
  t.writer_active <- true;
  while t.active > 0 do
    Condition.wait t.drained t.m
  done;
  Mutex.unlock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      t.cur_epoch <- t.cur_epoch + 1;
      t.n_writes <- t.n_writes + 1;
      t.writer_active <- false;
      Condition.broadcast t.turn;
      Mutex.unlock t.m)
    f
