(* Spans the benchmark records around its own calls into the library.

   Each measured op is a root span with its own id; the calls it makes
   into the layers are its children. Spans stay in memory (one recorder
   per thread, no locking) and are written out as Chrome trace JSON when
   the run ends. A span's self time is its duration minus the time its
   children cover. When [on] is false nothing is recorded. *)

type t = {
  mutable on : bool;
  tid : int;
  mutable n : int;
  mutable names : string array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable stack : int list;
}

let create ?(tid = 0) () =
  {
    on = false;
    tid;
    n = 0;
    names = Array.make 1024 "";
    parents = Array.make 1024 (-1);
    starts = Array.make 1024 0;
    stops = Array.make 1024 0;
    stack = [];
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.parents <- extend t.parents (-1);
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0

let open_ t name start =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.starts.(id) <- start;
  t.stack <- id :: t.stack;
  id

let close t id stop =
  t.stops.(id) <- stop;
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

(* A child span around [f]. *)
let span t name f =
  if not t.on then f ()
  else begin
    let id = open_ t name (Clock.now_ns ()) in
    match f () with
    | v ->
        close t id (Clock.now_ns ());
        v
    | exception e ->
        close t id (Clock.now_ns ());
        raise e
  end

type agg = { calls : int; total_ns : int; self_ns : int }

let self_times t =
  let covered = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then covered.(p) <- covered.(p) + (t.stops.(i) - t.starts.(i))
  done;
  Array.init t.n (fun i -> t.stops.(i) - t.starts.(i) - covered.(i))

(* Calls, total and self time per span name, over several recorders. *)
let aggregate ts =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let self = self_times t in
      for i = 0 to t.n - 1 do
        let a =
          Option.value (Hashtbl.find_opt tbl t.names.(i))
            ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
        in
        Hashtbl.replace tbl t.names.(i)
          {
            calls = a.calls + 1;
            total_ns = a.total_ns + (t.stops.(i) - t.starts.(i));
            self_ns = a.self_ns + self.(i);
          }
      done)
    ts;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let mean_us aggs name =
  match List.assoc_opt name aggs with
  | Some a when a.calls > 0 ->
      Some (Clock.us_of_ns a.total_ns /. float_of_int a.calls)
  | _ -> None

(* Chrome trace_event JSON ("X" complete events, microseconds). *)
let write_chrome path ts =
  let origin =
    List.fold_left
      (fun acc t -> if t.n > 0 then min acc t.starts.(0) else acc)
      max_int ts
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          t.names.(i) t.tid
          (Clock.us_of_ns (t.starts.(i) - origin))
          (Clock.us_of_ns (t.stops.(i) - t.starts.(i)))
          i t.parents.(i)
      done)
    ts;
  output_string oc "\n]}\n";
  close_out oc
