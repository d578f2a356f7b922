open Ftsim_kernel

type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  m : Pthread.mutex;
  not_empty : Pthread.cond;
  not_full : Pthread.cond;
}

let create pt ~capacity =
  if capacity <= 0 then invalid_arg "Workqueue.create";
  {
    items = Queue.create ();
    capacity;
    closed = false;
    m = Pthread.mutex_create pt;
    not_empty = Pthread.cond_create pt;
    not_full = Pthread.cond_create pt;
  }

let push pt t v =
  Pthread.mutex_lock pt t.m;
  while Queue.length t.items >= t.capacity && not t.closed do
    Pthread.cond_wait pt t.not_full t.m
  done;
  if t.closed then begin
    Pthread.mutex_unlock pt t.m;
    invalid_arg "Workqueue.push: closed"
  end
  else begin
    Queue.push v t.items;
    Pthread.cond_signal pt t.not_empty;
    Pthread.mutex_unlock pt t.m
  end

let pop pt t =
  Pthread.mutex_lock pt t.m;
  while Queue.is_empty t.items && not t.closed do
    Pthread.cond_wait pt t.not_empty t.m
  done;
  let v = Queue.take_opt t.items in
  if v <> None then Pthread.cond_signal pt t.not_full;
  Pthread.mutex_unlock pt t.m;
  v

let close pt t =
  Pthread.mutex_lock pt t.m;
  t.closed <- true;
  Pthread.cond_broadcast pt t.not_empty;
  Pthread.cond_broadcast pt t.not_full;
  Pthread.mutex_unlock pt t.m
