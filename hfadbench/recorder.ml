(* Per-op bookkeeping for one measured phase: latency samples by op
   class, attempted/failed counts, user payload bytes, and the op's
   spans when tracing is on. One recorder per client thread. *)

type cls = Name | Read | Write | Sync

let classes = [ Name; Read; Write; Sync ]

let cls_name = function
  | Name -> "name"
  | Read -> "read"
  | Write -> "write"
  | Sync -> "sync"

let index = function Name -> 0 | Read -> 1 | Write -> 2 | Sync -> 3

type samples = { mutable data : float array; mutable len : int }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (max 256 (2 * s.len)) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

type t = {
  spans : Spans.t;
  lat : samples array;  (** microseconds, indexed by {!index} *)
  mutable busy_ns : int;  (** summed op latency *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure messages *)
  mutable user_bytes : int;  (** payload bytes the ops asked to write *)
}

let create ?(tid = 0) ~trace () =
  let spans = Spans.create ~tid () in
  spans.Spans.on <- trace;
  {
    spans;
    lat = Array.init 4 (fun _ -> { data = [||]; len = 0 });
    busy_ns = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    user_bytes = 0;
  }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then r.errors <- r.errors @ [ msg ]

(* One measured op: a root span around [f], its latency filed under
   [cls]. An exception is a failed op and yields [None]. *)
let op r cls name f =
  r.attempted <- r.attempted + 1;
  let t0 = Clock.now_ns () in
  let id = if r.spans.Spans.on then Spans.open_ r.spans name t0 else -1 in
  let finish () =
    let t1 = Clock.now_ns () in
    if id >= 0 then Spans.close r.spans id t1;
    t1 - t0
  in
  match f () with
  | v ->
      let dt = finish () in
      r.busy_ns <- r.busy_ns + dt;
      push r.lat.(index cls) (Clock.us_of_ns dt);
      Some v
  | exception e ->
      ignore (finish ());
      fail r (Printf.sprintf "%s raised %s" name (Printexc.to_string e));
      None

(* A child span: one call the op makes into a layer. *)
let call r name f = Spans.span r.spans name f

let check r ok msg = if not ok then fail r msg
let samples r cls = contents r.lat.(index cls)

let merge rs =
  let all = create ~trace:false () in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          let s = r.lat.(index c) in
          for i = 0 to s.len - 1 do
            push all.lat.(index c) s.data.(i)
          done)
        classes;
      all.busy_ns <- all.busy_ns + r.busy_ns;
      all.attempted <- all.attempted + r.attempted;
      all.failed <- all.failed + r.failed;
      all.errors <- all.errors @ r.errors;
      all.user_bytes <- all.user_bytes + r.user_bytes)
    rs;
  all
