(* Layer counters read from outside: the global metrics registry, the
   pager's and device's own stats, the journal sequence, the lazy
   indexer and the OCaml runtime. A snapshot is taken before the
   measured phase and diffed after it. *)

module Fs = Hfad.Fs
module Osd = Hfad_osd.Osd
module Pager = Hfad_pager.Pager
module Device = Hfad_blockdev.Device
module Registry = Hfad_metrics.Registry
module Index_store = Hfad_index.Index_store
module Lazy_indexer = Hfad_fulltext.Lazy_indexer

type snap = {
  reg : Registry.snapshot;
  pager : Pager.stats;
  dev : Device.stats;
  jseq : int64;
  indexed : int;
  gc : Gc.stat;
}

let take fs =
  let osd = Fs.osd fs in
  {
    reg = Registry.snapshot Registry.global;
    pager = Pager.stats (Osd.pager osd);
    dev = Device.stats (Fs.device fs);
    jseq = Osd.journal_sequence osd;
    indexed = Lazy_indexer.processed (Index_store.indexer (Fs.index fs));
    gc = Gc.quick_stat ();
  }

type delta = {
  reg_d : (string * int) list;
  page_reads : int;
  page_hits : int;
  page_misses : int;
  evictions : int;
  write_backs : int;
  lock_waits : int;
  dev_reads : int;
  dev_writes : int;
  dev_flushes : int;
  dev_bytes_written : int;
  journal_commits : int;
  docs_indexed : int;
  alloc_words : float;
  major_collections : int;
}

let diff fs s =
  let now = take fs in
  let p0 = s.pager and p1 = now.pager in
  let d0 = s.dev and d1 = now.dev in
  let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    reg_d = Registry.diff Registry.global s.reg;
    page_reads = p1.reads - p0.reads;
    page_hits = p1.hits - p0.hits;
    page_misses = p1.misses - p0.misses;
    evictions = p1.evictions - p0.evictions;
    write_backs = p1.write_backs - p0.write_backs;
    lock_waits = p1.lock_waits - p0.lock_waits;
    dev_reads = d1.reads - d0.reads;
    dev_writes = d1.writes - d0.writes;
    dev_flushes = d1.flushes - d0.flushes;
    dev_bytes_written = d1.bytes_written - d0.bytes_written;
    journal_commits = Int64.to_int (Int64.sub now.jseq s.jseq);
    docs_indexed = now.indexed - s.indexed;
    alloc_words = alloc now.gc -. alloc s.gc;
    major_collections = now.gc.major_collections - s.gc.major_collections;
  }

let reg d name = Option.value ~default:0 (List.assoc_opt name d.reg_d)

(* A quantile of a registry histogram's deltas (summed over [ds]),
   linearly interpolated inside its bucket: the bucket bound alone would
   read the same on every run. Buckets are registered as
   [<name>.le_<bound>], each counting the values that fall in it. *)
let hist_quantile_sum ds name q =
  let prefix = name ^ ".le_" in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun d ->
      List.iter
        (fun (k, v) ->
          if String.starts_with ~prefix k then
            let b =
              String.sub k (String.length prefix)
                (String.length k - String.length prefix)
            in
            Option.iter
              (fun b ->
                Hashtbl.replace counts b
                  (v + Option.value ~default:0 (Hashtbl.find_opt counts b)))
              (int_of_string_opt b))
        d.reg_d)
    ds;
  let buckets =
    Hashtbl.fold (fun b v acc -> (b, v) :: acc) counts [] |> List.sort compare
  in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 buckets in
  if total = 0 then 0.0
  else begin
    let target = q *. float_of_int total in
    let rec go lower cum = function
      | [] -> float_of_int lower
      | (upper, v) :: rest ->
          let cum' = cum + v in
          if float_of_int cum' >= target && v > 0 then
            float_of_int lower
            +. float_of_int (upper - lower)
               *. ((target -. float_of_int cum) /. float_of_int v)
          else go upper cum' rest
    in
    go 0 0 buckets
  end

let hist_quantile d name q = hist_quantile_sum [ d ] name q

(* Peak resident set of this process, from the kernel's VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM not reported"
      in
      find ())

(* Mean microseconds of [f] over [keys], cycled, for at most
   [max_calls] calls or [budget_s] seconds, and at least ten calls. *)
let probe ?(max_calls = 400) ?(budget_s = 0.25) keys f =
  let n = Array.length keys in
  if n = 0 then 0.0
  else begin
    let start = Clock.now_ns () in
    let deadline = start + int_of_float (budget_s *. 1e9) in
    let calls = ref 0 and busy = ref 0 in
    while
      !calls < 10 || (!calls < max_calls && Clock.now_ns () < deadline)
    do
      let k = keys.(!calls mod n) in
      let t0 = Clock.now_ns () in
      ignore (Sys.opaque_identity (f k));
      busy := !busy + (Clock.now_ns () - t0);
      incr calls
    done;
    Clock.us_of_ns !busy /. float_of_int !calls
  end
