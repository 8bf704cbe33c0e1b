(* Runs one workload for a run: set up, measure and check in epochs
   until the measured time reaches [seconds], then print the metrics.

   Epoch [i] of a run sets up a fresh store from inputs generated from
   the seed pair (seed, i), so one run averages several corpora and op
   streams, and set-up is timed once per epoch (the median is
   reported). Counters that must repeat exactly for a seed come from a
   fixed set of epochs: [write_amp] from the first [fixed_epochs], the
   per-layer counters from the first traced epoch. A traced run
   alternates untraced and traced epochs: the traced ones give the
   per-layer metrics, and the pair gives the tracing overhead. *)

module Fs = Hfad.Fs
module Osd = Hfad_osd.Osd
module Btree = Hfad_btree.Btree
module Pager = Hfad_pager.Pager
module Buddy = Hfad_alloc.Buddy
module Index_store = Hfad_index.Index_store
module Fulltext = Hfad_fulltext.Fulltext
module P = Hfad_posix.Posix_fs

type workload = {
  name : string;
  clients : int;
  min_epochs : int;
      (** untraced epochs that give every p99 class 1000 samples *)
  prepare : tiny:bool -> seed:int -> unit -> Epoch.t;
}

let workloads =
  [
    {
      name = "naming";
      clients = 1;
      min_epochs = 4;
      prepare =
        (fun ~tiny -> Naming.prepare (if tiny then Naming.tiny else Naming.default));
    };
    {
      name = "ingest";
      clients = 1;
      min_epochs = 4;
      prepare =
        (fun ~tiny -> Ingest.prepare (if tiny then Ingest.tiny else Ingest.default));
    };
    {
      name = "wire";
      clients = Remote.default.Remote.clients;
      min_epochs = 8;
      prepare =
        (fun ~tiny -> Remote.prepare (if tiny then Remote.tiny else Remote.default));
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type epoch_out = {
  traced : bool;
  setup_ns : int;
  r : Recorder.t;
  spans : Spans.t list;
  wall_ns : int;
  delta : Counters.delta;
  extra : (string * float) list;
  probes : (string * float) list;
  image_pages : int;
  cache_pages : int;
}

(* Layer probes: direct calls into each layer's public function on the
   measured store, with keys from the workload's own stream. *)
let run_probes (e : Epoch.t) =
  let k = e.probe_keys () in
  let fs = e.fs in
  let osd = Fs.osd fs and idx = Fs.index fs in
  let pager = Osd.pager osd in
  let trees = List.map (fun (n, _) -> Osd.named_tree osd n) (Osd.named_roots osd) in
  let seeds =
    Array.to_list k.terms @ List.map snd (Array.to_list k.tags)
  in
  (* Keys sit under one-byte family prefixes; seek each stream string
     inside every family a tree has, so the keys found are the ones the
     workload's own names and terms lead to. *)
  let tree_keys =
    List.concat_map
      (fun t ->
        let families =
          List.init 256 (fun c -> Btree.seek t (String.make 1 (Char.chr c)))
          |> List.filter_map (function
               | Some (k, _) when k <> "" -> Some (String.make 1 k.[0])
               | _ -> None)
          |> List.sort_uniq compare
        in
        List.concat_map
          (fun s ->
            List.filter_map
              (fun f -> Option.map (fun (k, _) -> (t, k)) (Btree.seek t (f ^ s)))
              families)
          seeds)
      trees
    |> Epoch.distinct ~n:512
  in
  let pages =
    List.concat_map
      (fun t -> Btree.fold_pages t ~init:[] (fun acc p -> p :: acc))
      trees
    |> Epoch.distinct ~n:512
  in
  let probe = Counters.probe in
  let fs_write oid =
    let head = Fs.read fs oid ~off:0 ~len:8 in
    Epoch.ok_exn (Fs.write fs oid ~off:0 head)
  in
  [
    ("probe.posix.resolve",
      match e.posix with
      | Some p -> probe k.paths (P.resolve p)
      | None -> 0.0);
    ("probe.fs.lookup", probe k.tags (fun t -> Fs.lookup fs [ t ]));
    ("probe.fs.search", probe k.terms (Fs.search fs));
    ("probe.fs.read", probe k.oids (fun o -> Fs.read fs o ~off:0 ~len:4096));
    ("index.lookup_us", probe k.tags (Index_store.lookup idx));
    ( "fulltext.search_us",
      probe k.terms (fun q -> Fulltext.search_scored (Index_store.fulltext idx) [ q ]) );
    ("btree.find_us", probe tree_keys (fun (t, key) -> Btree.find t key));
    ("pager.with_page_us", probe pages (fun p -> Pager.with_page pager p Bytes.length));
    ("osd.read_us", probe k.oids (fun o -> Osd.read osd o ~off:0 ~len:4096));
    (* Writes last: they dirty the store the reads above measured. *)
    ("probe.fs.write", probe k.oids fs_write);
  ]

let run_epoch setup ~traced ~want_probes =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let e : Epoch.t = setup () in
  let setup_ns = Clock.now_ns () - t0 in
  let snap = Counters.take e.fs in
  let recs, wall_ns = e.measure ~trace:traced in
  let delta = Counters.diff e.fs snap in
  let r = Recorder.merge recs in
  let extra = e.layers delta ~wall_ns r in
  e.check_after r;
  let probes = if want_probes then run_probes e else [] in
  let osd = Fs.osd e.fs in
  let b = Buddy.stats (Osd.allocator osd) in
  let out =
    {
      traced;
      setup_ns;
      r;
      spans = List.map (fun (r : Recorder.t) -> r.spans) recs;
      wall_ns;
      delta;
      extra;
      probes;
      image_pages = b.Buddy.total_blocks - b.Buddy.free_blocks;
      cache_pages = (Fs.config e.fs).Fs.Config.cache_pages;
    }
  in
  e.close ();
  out

let fixed_epochs = 3

let epoch_seed seed i = (seed * 1_000_003) + i

let run_epochs (w : workload) ~tiny ~seed ~seconds ~trace =
  let min_epochs = if trace then 2 else w.min_epochs in
  let budget = int_of_float (seconds *. 1e9) in
  let rec loop i measured acc =
    if i >= min_epochs && measured >= budget then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      let want_probes = traced && not (List.exists (fun o -> o.traced) acc) in
      let setup = w.prepare ~tiny ~seed:(epoch_seed seed i) in
      let o = run_epoch setup ~traced ~want_probes in
      loop (i + 1) (measured + o.wall_ns) (o :: acc)
    end
  in
  loop 0 0 []

(* --- metrics ------------------------------------------------------------ *)

let all_samples outs cls =
  Array.concat (List.map (fun o -> Recorder.samples o.r cls) outs)
  |> Stats.sorted_of

let sum f outs = List.fold_left (fun a o -> a + f o) 0 outs

(* Closed-loop throughput: completed ops over the time clients spent
   waiting on them (per client, so concurrent clients add up). *)
let ops_per_s (w : workload) outs =
  let ok = sum (fun o -> o.r.attempted - o.r.failed) outs in
  let busy = sum (fun o -> o.r.busy_ns) outs in
  float_of_int (ok * w.clients) /. Clock.s_of_ns busy

let end_to_end (w : workload) outs =
  let p cls bp =
    let s = all_samples outs cls in
    if bp = 5_000 then Stats.median s else Stats.tail s ~bp
  in
  let attempted = sum (fun o -> o.r.attempted) outs in
  let failed = sum (fun o -> o.r.failed) outs in
  let setup =
    Stats.median (Stats.sorted_of (Array.of_list (List.map (fun o -> Clock.s_of_ns o.setup_ns) outs)))
  in
  let fixed = List.filteri (fun i _ -> i < fixed_epochs) outs in
  let open Recorder in
  [
    ("setup_s", setup, "s");
    ("ops_per_s", ops_per_s w outs, "1/s");
    ("name_p50_us", p Name 5_000, "us");
    ("name_p99_us", p Name 9_900, "us");
    ("read_p50_us", p Read 5_000, "us");
    ("read_p99_us", p Read 9_900, "us");
    ("write_p50_us", p Write 5_000, "us");
    ("write_p99_us", p Write 9_900, "us");
    ( "sync_p50_us",
      (* Remote clients issue no explicit sync: on wire this class is
         the group commit that makes a PUT durable. *)
      (if Array.length (all_samples outs Sync) > 0 then p Sync 5_000
       else
         Counters.hist_quantile_sum
           (List.map (fun o -> o.delta) outs)
           "fs.pipeline.commit_latency_us" 0.5),
      "us" );
    ( "ok_frac",
      float_of_int (attempted - failed) /. float_of_int (max 1 attempted),
      "frac" );
    ("peak_rss_mb", Counters.peak_rss_mb (), "MB");
    ( "write_amp",
      float_of_int (sum (fun o -> o.delta.Counters.dev_bytes_written) fixed)
      /. float_of_int (max 1 (sum (fun o -> o.r.user_bytes) fixed)),
      "ratio" );
  ]

(* name, unit, layer, the end-to-end metric it should move *)
let per_layer_table =
  [
    ("posix.resolve_us", "us", "posix", "read_p50_us on naming; write_p50_us on ingest");
    ("pathcache.hit_rate", "frac", "pathcache", "read_p50_us on naming; write_p50_us on ingest");
    ("fs.lookup_us", "us", "core", "name_p50_us on naming");
    ("fs.search_us", "us", "core", "name_p50_us on naming and ingest");
    ("fs.read_us", "us", "core", "read_p50_us on naming and ingest");
    ("fs.write_us", "us", "core", "write_p50_us on naming");
    ("fs.drain_index_us", "us", "core", "sync_p50_us on naming and ingest");
    ("fs.checkpoint_us", "us", "core", "sync_p50_us on naming and ingest");
    ("index.lookup_us", "us", "index", "name_p50_us on naming");
    ("index.lookups_per_op", "count/op", "index", "name_p50_us on naming");
    ("fulltext.search_us", "us", "fulltext", "name_p50_us on naming");
    ("fulltext.docs_per_sync", "count", "fulltext", "sync_p50_us on ingest");
    ("btree.find_us", "us", "btree", "name_p50_us, read_p50_us on naming");
    ("btree.descents_per_op", "count/op", "btree", "name_p50_us on naming; sync_p50_us on ingest");
    ("btree.nodes_visited_per_op", "count/op", "btree", "name_p50_us on naming; sync_p50_us on ingest");
    ("pager.hit_rate", "frac", "pager", "write_p50_us, ops_per_s on ingest");
    ("pager.misses_per_op", "count/op", "pager", "write_p50_us, ops_per_s on ingest");
    ("pager.evictions_per_op", "count/op", "pager", "write_p50_us, ops_per_s on ingest");
    ("pager.write_backs_per_sync", "count", "pager", "sync_p50_us on ingest");
    ("pager.with_page_us", "us", "pager", "ops_per_s on ingest");
    ("pager.lock_waits_per_op", "count/op", "pager", "ops_per_s on ingest");
    ("osd.read_us", "us", "osd", "read_p50_us on naming");
    ("osd.bytes_written_per_op", "B/op", "osd", "write_amp on ingest");
    ("journal.commits", "count", "journal", "write_amp, sync_p50_us on ingest");
    ("device.reads_per_op", "count/op", "blockdev", "write_amp on ingest and wire");
    ("device.writes_per_op", "count/op", "blockdev", "write_amp on ingest and wire");
    ("device.bytes_written_per_op", "B/op", "blockdev", "write_amp on ingest and wire");
    ("device.flushes_per_op", "count/op", "blockdev", "write_amp on ingest and wire");
    ("flusher.commits_per_put", "count", "core", "write_p50_us on wire");
    ("flusher.avg_batch_ops", "count", "core", "write_p50_us on wire");
    ("flusher.commit_p50_us", "us", "core", "write_p50_us on wire");
    ("server.execute_p50_us.put", "us", "server", "write_p50_us on wire");
    ("server.execute_p50_us.get", "us", "server", "read_p50_us on wire");
    ("server.execute_p50_us.search", "us", "server", "name_p50_us on wire");
    ("server.wait_p50_us.put", "us", "server", "write_p50_us on wire");
    ("server.avg_batch", "count", "server", "write_p50_us on wire");
    ("server.busy_frac", "frac", "server", "read_p50_us, write_p50_us on wire");
    ("rwlock.shared_waits_per_op", "count/op", "util", "read_p99_us on wire");
    ("rwlock.exclusive_waits_per_op", "count/op", "util", "read_p99_us on wire");
    ("gc.alloc_words_per_op", "words/op", "runtime", "name_p50_us on naming; peak_rss_mb");
    ("gc.major_collections_per_kop", "count/kop", "runtime", "name_p50_us on naming; peak_rss_mb");
    ("trace.overhead_frac", "frac", "tracing", "-");
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_layer (w : workload) outs =
  let traced = List.filter (fun o -> o.traced) outs in
  let untraced = List.filter (fun o -> not o.traced) outs in
  (* Counters from the first traced epoch: one fixed op stream, so on
     the in-process workloads they repeat exactly for a seed. *)
  let o = List.hd traced in
  let d = o.delta in
  let reg = Counters.reg d in
  let ops = o.r.attempted in
  let per_op n = ratio n ops in
  let commits = reg "fs.pipeline.commits" in
  let syncs =
    if commits > 0 then commits else Array.length (Recorder.samples o.r Recorder.Sync)
  in
  let puts = Array.length (Recorder.samples o.r Recorder.Write) in
  let aggs = Spans.aggregate (List.concat_map (fun o -> o.spans) traced) in
  let probe name = Option.value ~default:0.0 (List.assoc_opt name o.probes) in
  let span_or_probe name =
    match Spans.mean_us aggs name with
    | Some v -> v
    | None -> probe ("probe." ^ name)
  in
  let span name = Option.value ~default:0.0 (Spans.mean_us aggs name) in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name o.extra) in
  let values =
    [
      ("posix.resolve_us", span_or_probe "posix.resolve");
      ( "pathcache.hit_rate",
        ratio (reg "pathcache.hits") (reg "pathcache.hits" + reg "pathcache.misses") );
      ("fs.lookup_us", span_or_probe "fs.lookup");
      ("fs.search_us", span_or_probe "fs.search");
      ("fs.read_us", span_or_probe "fs.read");
      ("fs.write_us", span_or_probe "fs.write");
      ("fs.drain_index_us", span "fs.drain_index");
      ("fs.checkpoint_us", span "fs.sync");
      ("index.lookup_us", probe "index.lookup_us");
      ("index.lookups_per_op", per_op (reg "index.lookups"));
      ("fulltext.search_us", probe "fulltext.search_us");
      ("fulltext.docs_per_sync", ratio d.Counters.docs_indexed syncs);
      ("btree.find_us", probe "btree.find_us");
      ("btree.descents_per_op", per_op (reg "btree.descents"));
      ("btree.nodes_visited_per_op", per_op (reg "btree.nodes_visited"));
      ("pager.hit_rate", ratio d.page_hits d.page_reads);
      ("pager.misses_per_op", per_op d.page_misses);
      ("pager.evictions_per_op", per_op d.evictions);
      ("pager.write_backs_per_sync", ratio d.write_backs syncs);
      ("pager.with_page_us", probe "pager.with_page_us");
      ("pager.lock_waits_per_op", per_op d.lock_waits);
      ("osd.read_us", probe "osd.read_us");
      ("osd.bytes_written_per_op", per_op (reg "osd.bytes_written"));
      ("journal.commits", float_of_int d.journal_commits);
      ("device.reads_per_op", per_op d.dev_reads);
      ("device.writes_per_op", per_op d.dev_writes);
      ("device.bytes_written_per_op", per_op d.dev_bytes_written);
      ("device.flushes_per_op", per_op d.dev_flushes);
      ("flusher.commits_per_put", ratio commits puts);
      ( "flusher.avg_batch_ops",
        ratio (reg "fs.pipeline.batch_ops.sum") (reg "fs.pipeline.batch_ops.count") );
      ( "flusher.commit_p50_us",
        Counters.hist_quantile d "fs.pipeline.commit_latency_us" 0.5 );
      ("server.execute_p50_us.put", extra "server.execute_p50_us.put");
      ("server.execute_p50_us.get", extra "server.execute_p50_us.get");
      ("server.execute_p50_us.search", extra "server.execute_p50_us.search");
      ("server.wait_p50_us.put", extra "server.wait_p50_us.put");
      ("server.avg_batch", extra "server.avg_batch");
      ("server.busy_frac", extra "server.busy_frac");
      ("rwlock.shared_waits_per_op", per_op (reg "rwlock.shared_waits"));
      ("rwlock.exclusive_waits_per_op", per_op (reg "rwlock.exclusive_waits"));
      ("gc.alloc_words_per_op", d.alloc_words /. float_of_int (max 1 ops));
      ("gc.major_collections_per_kop", 1000. *. per_op d.major_collections);
      ( "trace.overhead_frac",
        1. -. (ops_per_s w traced /. ops_per_s w untraced) );
    ]
  in
  List.map
    (fun (name, unit_, _, _) -> (name, List.assoc name values, unit_))
    per_layer_table

(* --- output ---------------------------------------------------------------- *)

let print_summary (w : workload) outs =
  let o = List.hd outs in
  Printf.printf "workload %s: %d epoch(s), image %d pages, cache %d pages\n"
    w.name (List.length outs) o.image_pages o.cache_pages;
  List.iter
    (fun cls ->
      let s = all_samples outs cls in
      let n = Array.length s in
      if n > 0 then
        Printf.printf "  %-5s n=%-7d p50=%10.1f us  tail %s\n"
          (Recorder.cls_name cls) n (Stats.median s)
          (match Stats.highest_tail s with
          | Some (bp, v) -> Printf.sprintf "p%g=%.1f us" (float_of_int bp /. 100.) v
          | None -> "-"))
    Recorder.classes;
  List.iteri
    (fun i o ->
      let p50 cls =
        let s = Stats.sorted_of (Recorder.samples o.r cls) in
        if Array.length s = 0 then 0.0 else Stats.median s
      in
      Printf.printf
        "  epoch %d%s: setup %.3f s, %d ops in %.3f s, p50 name %.1f read %.1f write %.1f sync %.1f us\n"
        i (if o.traced then " (traced)" else "") (Clock.s_of_ns o.setup_ns)
        o.r.attempted (Clock.s_of_ns o.wall_ns) (p50 Recorder.Name)
        (p50 Recorder.Read) (p50 Recorder.Write) (p50 Recorder.Sync);
      List.iter (fun m -> Printf.printf "  failure: %s\n" m) o.r.errors)
    outs

let print_spans outs =
  let traced = List.filter (fun o -> o.traced) outs in
  let aggs = Spans.aggregate (List.concat_map (fun o -> o.spans) traced) in
  Printf.printf "  %-18s %9s %12s %12s\n" "span" "calls" "mean us" "self us";
  List.iter
    (fun (name, (a : Spans.agg)) ->
      let per ns = Clock.us_of_ns ns /. float_of_int a.calls in
      Printf.printf "  %-18s %9d %12.1f %12.1f\n" name a.calls (per a.total_ns)
        (per a.self_ns))
    aggs

let print_layers rows =
  Printf.printf "  %-10s %-32s %14s  %-9s %s\n" "layer" "metric" "value" "unit" "moves";
  List.iter2
    (fun (name, v, unit_) (_, _, layer, moves) ->
      Printf.printf "  %-10s %-32s %14.4f  %-9s %s\n" layer name v unit_ moves)
    rows per_layer_table

let run ?trace_file (w : workload) ~seed ~seconds ~trace =
  let outs = run_epochs w ~tiny:false ~seed ~seconds ~trace in
  print_summary w outs;
  let attempted = sum (fun o -> o.r.attempted) outs in
  let failed = sum (fun o -> o.r.failed) outs in
  let metrics =
    if trace then begin
      let rows = per_layer w outs in
      print_spans outs;
      print_layers rows;
      Option.iter
        (fun path ->
          match List.find_opt (fun o -> o.traced) outs with
          | Some o ->
              Spans.write_chrome path o.spans;
              Printf.printf "  spans written to %s\n" path
          | None -> ())
        trace_file;
      rows
    end
    else end_to_end w outs
  in
  let metrics =
    List.map (fun (name, value, unit_) -> { Stats.name; value; unit_ }) metrics
  in
  (failed = 0, attempted, failed, metrics)
