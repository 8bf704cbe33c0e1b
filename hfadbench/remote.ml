(* wire: synchronous remote clients, in a process of their own, against
   a server in the benchmark's process — the codec, the server loop and
   the group-commit barrier. See NOTES.md. *)

module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Zipf = Hfad_util.Zipf
module Words = Hfad_workload.Words
module Server = Hfad_server.Server
module Client = Hfad_server.Client
module Wire = Hfad_server.Wire
open Recorder

type size = {
  clients : int;
  keys_per_client : int;
  ops_per_client : int;
  value_bytes : int;
  buckets : int;  (** distinct bucket words; bounds a search's hit list *)
  blocks : int;
  cache_pages : int;
  journal_pages : int;
}

let default =
  {
    clients = 2;
    keys_per_client = 512;
    ops_per_client = 750;
    value_bytes = 256;
    buckets = 128;
    blocks = 4096;
    cache_pages = 4096;
    journal_pages = 1024;
  }

let tiny =
  {
    clients = 2;
    keys_per_client = 32;
    ops_per_client = 80;
    value_bytes = 128;
    buckets = 8;
    blocks = 2048;
    cache_pages = 1024;
    journal_pages = 256;
  }

type step =
  | Put of int * string
  | Get of int
  | Stat of int
  | Search of int

let key_name size g =
  Printf.sprintf "c%dk%05d" (g / size.keys_per_client) (g mod size.keys_per_client)

let bucket_word size g = Printf.sprintf "b%03d" (g mod size.buckets)

(* Every version of a key's value carries its bucket word, so a search
   for that word must hit only keys of that bucket. One common word and
   punctuation padding keep a value to four index terms, as for a small
   record, so a PUT's re-indexing stays small next to its commit. *)
let value size rng g version =
  let b = Buffer.create size.value_bytes in
  Printf.bprintf b "%s %s v%d" (bucket_word size g) (key_name size g) version;
  Printf.bprintf b " %s " (Rng.choice rng Words.common);
  while Buffer.length b < size.value_bytes do
    Buffer.add_char b '.'
  done;
  Buffer.sub b 0 size.value_bytes

(* 10% put, 40% get, 10% stat, 40% search; keys are Zipf over
   the client's own partition, so "the last acknowledged PUT" of a key
   is well defined for the client that reads it. *)
let client_steps size ~seed c =
  let rng = Rng.create (Int64.of_int ((seed * 7919) + c + 1)) in
  let zk = Zipf.create ~n:size.keys_per_client ~s:0.99 in
  let zb = Zipf.create ~n:size.buckets ~s:0.99 in
  let versions = Array.make size.keys_per_client 0 in
  Array.init size.ops_per_client (fun _ ->
      let k = Zipf.sample zk rng in
      let g = (c * size.keys_per_client) + k in
      match Rng.int rng 100 with
      | n when n < 10 ->
          versions.(k) <- versions.(k) + 1;
          Put (g, value size rng g versions.(k))
      | n when n < 50 -> Get g
      | n when n < 60 -> Stat g
      | _ -> Search (Zipf.sample zb rng))

(* The clients' side of an epoch. Its inputs come from the seed alone:
   the initial value of every key and each client's op stream. *)
type inputs = { initial : string array; steps : step array array }

let inputs size ~seed =
  let nkeys = size.clients * size.keys_per_client in
  let rng = Rng.create (Int64.of_int seed) in
  {
    initial = Array.init nkeys (fun g -> value size rng g 0);
    steps = Array.init size.clients (client_steps size ~seed);
  }

let client_loop size inp ~oids ~by_bucket conn r c =
  let last = Hashtbl.create size.keys_per_client in
  let latest g = Option.value (Hashtbl.find_opt last g) ~default:inp.initial.(g) in
  let ok name = function
    | Ok v -> v
    | Error e -> failwith (Format.asprintf "%s: %a" name Client.pp_error e)
  in
  Array.iter
    (fun step ->
      match step with
      | Put (g, data) -> (
          match
            op r Write "client.put" (fun () ->
                ok "put" (Client.put conn ~key:(key_name size g) data))
          with
          | Some got ->
              Hashtbl.replace last g data;
              r.user_bytes <- r.user_bytes + String.length data;
              check r (got = oids.(g)) ("put " ^ key_name size g)
          | None -> ())
      | Get g -> (
          match
            op r Read "client.get" (fun () ->
                ok "get" (Client.get conn ~key:(key_name size g)))
          with
          | Some data -> check r (data = latest g) ("get " ^ key_name size g)
          | None -> ())
      | Stat g -> (
          match
            op r Read "client.stat" (fun () ->
                ok "stat" (Client.stat conn ~key:(key_name size g)))
          with
          | Some (o, len) ->
              check r
                (o = oids.(g) && Int64.to_int len = String.length (latest g))
                ("stat " ^ key_name size g)
          | None -> ())
      | Search b -> (
          let word = Printf.sprintf "b%03d" b in
          match
            op r Name "client.search" (fun () -> ok "search" (Client.search conn word))
          with
          | Some hits ->
              (* Precision only: a PUT is a truncate then a write, and a
                 group commit may index the object between the two, so a
                 hit may be briefly missing but never wrong. *)
              check r
                (List.for_all (fun (o, _) -> List.mem o by_bucket.(b)) hits)
                ("search " ^ word)
          | None -> ()))
    inp.steps.(c)

(* Run every client, one thread and one connection each; the recorders
   and the wall time from the first op to the last reply. *)
let run_clients size inp ~oids ~port ~trace =
  let by_bucket = Array.make size.buckets [] in
  Array.iteri
    (fun g oid ->
      let b = g mod size.buckets in
      by_bucket.(b) <- oid :: by_bucket.(b))
    oids;
  let conns = Array.init size.clients (fun _ -> Client.connect ~port ()) in
  let rs = Array.init size.clients (fun c -> Recorder.create ~tid:c ~trace ()) in
  let t0 = Clock.now_ns () in
  let threads =
    Array.mapi
      (fun c r ->
        Thread.create (fun () -> client_loop size inp ~oids ~by_bucket conns.(c) r c) ())
      rs
  in
  Array.iter Thread.join threads;
  let wall = Clock.now_ns () - t0 in
  Array.iter Client.close conns;
  (Array.to_list rs, wall)

(* --- the client process --------------------------------------------------

   The clients run in a child process, as remote clients do: in the
   server's process they would share its OCaml runtime, and every
   stop-the-world pause of one side would stall the other. The child
   reads the OIDs the server assigned on stdin and writes its recorders
   to stdout, one record per line. *)

let child_var = "HFADBENCH_WIRE_CLIENT"

let write_recorders oc rs wall =
  Printf.fprintf oc "wall %d\n" wall;
  List.iter
    (fun (r : Recorder.t) ->
      Printf.fprintf oc "rec %d %d %d %d %d\n" r.spans.Spans.tid r.attempted
        r.failed r.busy_ns r.user_bytes;
      List.iter
        (fun cls ->
          Array.iter
            (fun v -> Printf.fprintf oc "s %d %.3f\n" (Recorder.index cls) v)
            (Recorder.samples r cls))
        Recorder.classes;
      List.iter (fun m -> Printf.fprintf oc "x %s\n" m) r.errors;
      let sp = r.spans in
      for i = 0 to sp.Spans.n - 1 do
        Printf.fprintf oc "p %s %d %d\n" sp.names.(i) sp.starts.(i) sp.stops.(i)
      done)
    rs

let read_recorders ic ~trace =
  let rs = ref [] and wall = ref 0 in
  let cur () = List.hd !rs in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ' ' with
       | None -> ()
       | Some i -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match String.sub line 0 i with
           | "wall" -> wall := int_of_string rest
           | "rec" ->
               Scanf.sscanf rest "%d %d %d %d %d" (fun tid att fl busy ub ->
                   let r = Recorder.create ~tid ~trace () in
                   r.attempted <- att;
                   r.failed <- fl;
                   r.busy_ns <- busy;
                   r.user_bytes <- ub;
                   rs := r :: !rs)
           | "s" ->
               Scanf.sscanf rest "%d %f" (fun c v ->
                   Recorder.push (cur ()).lat.(c) v)
           | "x" -> (cur ()).errors <- (cur ()).errors @ [ rest ]
           | "p" ->
               Scanf.sscanf rest "%s %d %d" (fun name a b ->
                   let sp = (cur ()).spans in
                   Spans.close sp (Spans.open_ sp name a) b)
           | _ -> ())
     done
   with End_of_file -> ());
  (List.rev !rs, !wall)

let sizes = [ ("default", default); ("tiny", tiny) ]

(* Entry point of the client process; returns when this process is not
   one. *)
let child_main () =
  match Sys.getenv_opt child_var with
  | None -> ()
  | Some spec ->
      Scanf.sscanf spec "%s@:%d:%d:%d" (fun size_name seed port trace ->
          let size = List.assoc size_name sizes in
          let inp = inputs size ~seed in
          let oids =
            Array.init (Array.length inp.initial) (fun _ ->
                Int64.of_string (input_line stdin))
          in
          let rs, wall = run_clients size inp ~oids ~port ~trace:(trace = 1) in
          write_recorders stdout rs wall;
          exit 0)

let spawn_clients size ~seed ~port ~trace ~oids =
  let size_name = fst (List.find (fun (_, s) -> s == size) sizes) in
  let env =
    Array.append
      [|
        Printf.sprintf "%s=%s:%d:%d:%d" child_var size_name seed port
          (if trace then 1 else 0);
      |]
      (Unix.environment ())
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  Array.iter (fun o -> Printf.fprintf oc "%Ld\n" o) oids;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let result = read_recorders ic ~trace in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> result
  | _ -> failwith "wire client process failed"

let prepare size ~seed =
  let inp = inputs size ~seed in
  let nkeys = Array.length inp.initial in
  fun () ->
    let dev = Device.create ~block_size:4096 ~blocks:size.blocks () in
    let config =
      Fs.Config.v ~cache_pages:size.cache_pages
        ~journal_pages:size.journal_pages ~shards:1 ()
    in
    let fs = Fs.format ~config dev in
    (* Checkpointed chunks, as the pager cannot steal dirty pages. *)
    let oids =
      Array.init nkeys (fun g ->
          let oid =
            Fs.create_exn fs
              ~names:[ (Tag.Udef, key_name size g) ]
              ~content:inp.initial.(g)
          in
          if (g + 1) mod 64 = 0 then Fs.sync_exn ~mode:`Checkpoint fs;
          oid)
    in
    Fs.sync_exn ~mode:`Checkpoint fs;
    (* The defaults of [hfadctl serve]: 2 worker domains, batched acks,
       the write pipeline on. *)
    let server = Server.start fs in
    let port = Server.port server in
    let stop () =
      Server.stop server;
      Fs.stop_pipeline fs
    in
    let measure ~trace =
      spawn_clients size ~seed ~port ~trace ~oids:(Array.map Oid.to_int64 oids)
    in
    (* One connection of the benchmark's own, for the STATS scrape. *)
    let scrape () =
      let c = Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c)
    in
    let layers d ~wall_ns r =
      let hq name = Counters.hist_quantile d ("server.latency_us." ^ name) 0.5 in
      let busy_us =
        List.fold_left
          (fun acc (k, v) ->
            if String.starts_with ~prefix:"server.latency_us." k
               && String.ends_with ~suffix:".sum" k
            then acc + v
            else acc)
          0 d.Counters.reg_d
      in
      let put_p50 =
        let s = Stats.sorted_of (Recorder.samples r Write) in
        if Array.length s = 0 then 0.0 else Stats.median s
      in
      let scraped = scrape () in
      let avg_batch =
        match scraped with
        | Ok s when s.Wire.Stats.batches > 0 ->
            float_of_int s.Wire.Stats.batch_ops /. float_of_int s.Wire.Stats.batches
        | Ok _ -> 0.0
        | Error e -> failwith (Format.asprintf "stats: %a" Client.pp_error e)
      in
      let workers = (Server.Config.default).Server.Config.workers in
      [
        ("server.execute_p50_us.put", hq "put");
        ("server.execute_p50_us.get", hq "get");
        ("server.execute_p50_us.search", hq "search");
        ("server.wait_p50_us.put", put_p50 -. hq "put");
        ("server.avg_batch", avg_batch);
        ( "server.busy_frac",
          float_of_int busy_us
          /. (Clock.us_of_ns wall_ns *. float_of_int workers) );
      ]
    in
    let probe_keys () =
      let some = Array.init (min 256 nkeys) (fun i -> (i * 7919) mod nkeys) in
      {
        Epoch.tags = Array.map (fun g -> (Tag.Udef, key_name size g)) some;
        terms = Array.init size.buckets (fun b -> Printf.sprintf "b%03d" b);
        oids = Array.map (fun g -> oids.(g)) some;
        paths = [||];
      }
    in
    let close () =
      stop ();
      Fs.close fs
    in
    {
      Epoch.fs;
      posix = None;
      measure;
      check_after = (fun _ -> stop ());
      layers;
      probe_keys;
      close;
    }
