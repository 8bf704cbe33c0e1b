(* naming: a desktop session over a preloaded photo library — the
   paper's naming path. See NOTES.md. *)

module Fs = Hfad.Fs
module P = Hfad_posix.Posix_fs
module Tag = Hfad_index.Tag
module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load
module Trace = Hfad_workload.Trace
open Recorder

type size = {
  photos : int;
  ops : int;
  edits_per_sync : int;
  blocks : int;
  cache_pages : int;  (** at least [blocks]: the whole image is cached *)
  journal_pages : int;
}

let default =
  {
    photos = 600;
    ops = 12_000;
    edits_per_sync = 32;
    blocks = 4096;
    cache_pages = 4096;
    journal_pages = 512;
  }

let tiny =
  {
    photos = 60;
    ops = 300;
    edits_per_sync = 4;
    blocks = 2048;
    cache_pages = 2048;
    journal_pages = 256;
  }

(* Inputs come from the seed alone and are generated once per run;
   every epoch replays the same stream on a freshly loaded store. *)
let prepare size ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let photos = Corpus.photos rng ~count:size.photos in
  let stream = Array.of_list (Trace.generate rng ~photos ~ops:size.ops) in
  fun () ->
    let dev = Device.create ~block_size:4096 ~blocks:size.blocks () in
    let config =
      Fs.Config.v ~cache_pages:size.cache_pages
        ~journal_pages:size.journal_pages ~shards:1 ()
    in
    let fs = Fs.format ~config dev in
    let posix = P.mount fs in
    let oids = Load.photos_into_hfad posix photos in
    Fs.sync_exn ~mode:`Checkpoint fs;
    let measure ~trace =
      (* The oracle: expected answers from the corpus alone. *)
      let content = Hashtbl.create size.photos in
      let attrs = Oracle.attrs () and inv = Oracle.inverted () in
      let indexed = Hashtbl.create size.photos in
      List.iter2
        (fun (p : Corpus.photo) oid ->
          List.iter
            (fun v -> Oracle.add_attr attrs v oid)
            (List.sort_uniq compare
               ((p.place :: string_of_int p.year :: p.people)));
          Oracle.add inv oid p.caption;
          Hashtbl.replace indexed oid p.caption;
          Hashtbl.replace content p.photo_path p.caption)
        photos oids;
      let r = Recorder.create ~trace () in
      let pending = Hashtbl.create 64 in
      let edits = ref 0 in
      let resolve p = call r "posix.resolve" (fun () -> P.resolve posix p) in
      let sync () =
        match
          op r Sync "sync" (fun () ->
              call r "fs.drain_index" (fun () -> Fs.drain_index fs);
              call r "fs.sync" (fun () ->
                  Epoch.ok_exn (Fs.sync ~mode:`Checkpoint fs)))
        with
        | Some () ->
            (* The lazy indexer has now caught up with every edit. *)
            Hashtbl.iter
              (fun oid text ->
                Oracle.remove inv oid (Hashtbl.find indexed oid);
                Oracle.add inv oid text;
                Hashtbl.replace indexed oid text)
              pending;
            Hashtbl.reset pending
        | None -> ()
      in
      let t0 = Clock.now_ns () in
      Array.iter
        (function
          | Trace.Lookup_attr v -> (
              match
                op r Name "name.lookup" (fun () ->
                    call r "fs.lookup" (fun () -> Fs.lookup fs [ (Tag.Udef, v) ]))
              with
              | Some got ->
                  check r (got = Oracle.lookup attrs v) ("lookup UDEF/" ^ v)
              | None -> ())
          | Trace.Search_content q -> (
              match
                op r Name "name.search" (fun () ->
                    call r "fs.search" (fun () -> Fs.search fs q))
              with
              | Some got ->
                  let got = List.sort Hfad_osd.Oid.compare (List.map fst got) in
                  check r (got = Oracle.search inv q) ("search " ^ q)
              | None -> ())
          | Trace.Open_path p -> (
              match
                op r Read "read.open" (fun () ->
                    let oid = resolve p in
                    call r "fs.read" (fun () -> Fs.read fs oid ~off:0 ~len:4096))
              with
              | Some data ->
                  check r (data = Hashtbl.find content p) ("open " ^ p)
              | None -> ())
          | Trace.Edit p -> (
              let data = Printf.sprintf "ed%06d" (!edits mod 1_000_000) in
              match
                op r Write "write.edit" (fun () ->
                    let oid = resolve p in
                    call r "fs.write" (fun () ->
                        Epoch.ok_exn (Fs.write fs oid ~off:0 data));
                    oid)
              with
              | Some oid ->
                  r.user_bytes <- r.user_bytes + String.length data;
                  let old = Hashtbl.find content p in
                  let text =
                    data
                    ^ String.sub old (String.length data)
                        (String.length old - String.length data)
                  in
                  Hashtbl.replace content p text;
                  Hashtbl.replace pending oid text;
                  incr edits;
                  if !edits mod size.edits_per_sync = 0 then sync ()
              | None -> ()))
        stream;
      ([ r ], Clock.now_ns () - t0)
    in
    let probe_keys () =
      let ops = Array.to_list stream in
      let paths =
        List.filter_map (function Trace.Open_path p -> Some p | _ -> None) ops
      in
      {
        Epoch.tags =
          Epoch.distinct
            (List.filter_map
               (function Trace.Lookup_attr v -> Some (Tag.Udef, v) | _ -> None)
               ops);
        terms =
          Epoch.distinct
            (List.filter_map
               (function Trace.Search_content q -> Some q | _ -> None)
               ops);
        oids = Array.map (P.resolve posix) (Epoch.distinct paths);
        paths = Epoch.distinct paths;
      }
    in
    {
      Epoch.fs;
      posix = Some posix;
      measure;
      check_after = (fun _ -> ());
      layers = Epoch.no_layers;
      probe_keys;
      close = (fun () -> P.unmount posix; Fs.close fs);
    }
