type 'a t = { mutable value : 'a option; waiters : Waitq.t }

let create () = { value = None; waiters = Waitq.create () }

let try_fill t v =
  match t.value with
  | Some _ -> false
  | None ->
      t.value <- Some v;
      ignore (Waitq.wake_all t.waiters);
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let read t =
  match t.value with
  | Some v -> v
  | None -> (
      Engine.suspend_on t.waiters;
      match t.value with Some v -> v | None -> assert false)

let peek t = t.value

let is_filled t = t.value <> None
