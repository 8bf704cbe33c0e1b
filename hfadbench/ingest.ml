(* ingest: a mail import into a preloaded mailbox — the write path.
   See NOTES.md. *)

module Fs = Hfad.Fs
module P = Hfad_posix.Posix_fs
module Tag = Hfad_index.Tag
module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load
open Recorder

type size = {
  preload : int;
  imports : int;
  imports_per_sync : int;
  blocks : int;
  cache_pages : int;  (** a fraction of the image by the end *)
  journal_pages : int;
}

let default =
  {
    preload = 500;
    imports = 750;
    imports_per_sync = 32;
    blocks = 8192;
    cache_pages = 768;
    journal_pages = 1024;
  }

let tiny =
  {
    preload = 40;
    imports = 60;
    imports_per_sync = 16;
    blocks = 2048;
    cache_pages = 256;
    journal_pages = 256;
  }

(* Per import, one read of an earlier email and one search for the
   subject of a recent import ride along, so every class gets samples;
   they cost a small share of the phase next to the checkpoints. *)
type step = Import of int | Read of int | Search of int | Sync

let content_of (e : Corpus.email) = e.subject ^ "\n" ^ e.body

let tags_of (e : Corpus.email) =
  [
    (Tag.User, e.recipient);
    (Tag.Custom "from", e.sender);
    (Tag.Udef, string_of_int e.email_year);
    (Tag.App, "mail-client");
  ]

let prepare size ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let emails = Array.of_list (Corpus.emails rng ~count:(size.preload + size.imports)) in
  let preloaded = Array.to_list (Array.sub emails 0 size.preload) in
  let steps =
    List.init size.imports (fun i ->
        let import =
          [
            Import (size.preload + i);
            Read (Rng.int rng 1_000_000);
            Search (Rng.int rng 1_000_000);
          ]
        in
        if (i + 1) mod size.imports_per_sync = 0 then import @ [ Sync ] else import)
    |> List.concat |> Array.of_list
  in
  fun () ->
    let dev = Device.create ~block_size:4096 ~blocks:size.blocks () in
    let config =
      Fs.Config.v ~cache_pages:size.cache_pages
        ~journal_pages:size.journal_pages ~shards:1 ()
    in
    let fs = Fs.format ~config dev in
    let posix = P.mount fs in
    let oids = Array.make (Array.length emails) None in
    (* Preload in checkpointed chunks: the pager cannot steal dirty
       pages, so one unbroken bulk load overflows the cache. *)
    List.iteri
      (fun i e ->
        (match Load.emails_into_hfad posix [ e ] with
        | [ oid ] -> oids.(i) <- Some oid
        | _ -> failwith "preload: import returned no single oid");
        if (i + 1) mod size.imports_per_sync = 0 then
          Fs.sync_exn ~mode:`Checkpoint fs)
      preloaded;
    Fs.sync_exn ~mode:`Checkpoint fs;
    (* Emails made durable by the last completed checkpoint. *)
    let synced = ref size.preload in
    let measure ~trace =
      let inv = Oracle.inverted () in
      for i = 0 to size.preload - 1 do
        Oracle.add inv (Option.get oids.(i)) (content_of emails.(i))
      done;
      let r = Recorder.create ~trace () in
      let next = ref size.preload in
      let t0 = Clock.now_ns () in
      Array.iter
        (function
          | Import i -> (
              let e = emails.(i) in
              match
                op r Write "write.import" (fun () ->
                    call r "load.email" (fun () -> Load.emails_into_hfad posix [ e ]))
              with
              | Some [ oid ] ->
                  oids.(i) <- Some oid;
                  r.user_bytes <- r.user_bytes + String.length (content_of e);
                  next := i + 1
              | Some _ -> fail r "import returned no single oid"
              | None -> next := i + 1)
          | Read k -> (
              let e = emails.(k mod !next) in
              match
                op r Read "read.open" (fun () ->
                    let oid =
                      call r "posix.resolve" (fun () -> P.resolve posix e.email_path)
                    in
                    call r "fs.read" (fun () -> Fs.read_all fs oid))
              with
              | Some data -> check r (data = content_of e) ("read " ^ e.email_path)
              | None -> ())
          | Search k -> (
              let recent = min size.imports_per_sync (!next - size.preload) in
              let e =
                if recent = 0 then emails.(k mod size.preload)
                else emails.(!next - 1 - (k mod recent))
              in
              match
                op r Name "name.search" (fun () ->
                    call r "fs.search" (fun () -> Fs.search fs e.subject))
              with
              | Some got ->
                  let got = List.sort Hfad_osd.Oid.compare (List.map fst got) in
                  check r (got = Oracle.search inv e.subject) ("search " ^ e.subject)
              | None -> ())
          | Sync -> (
              match
                op r Sync "sync" (fun () ->
                    call r "fs.drain_index" (fun () -> Fs.drain_index fs);
                    call r "fs.sync" (fun () ->
                        Epoch.ok_exn (Fs.sync ~mode:`Checkpoint fs)))
              with
              | Some () ->
                  for i = !synced to !next - 1 do
                    Option.iter
                      (fun oid -> Oracle.add inv oid (content_of emails.(i)))
                      oids.(i)
                  done;
                  synced := !next
              | None -> ()))
        steps;
      ([ r ], Clock.now_ns () - t0)
    in
    (* Crash check: save the device as it stands, without closing the
       file system, reopen the image, and require every email that a
       completed checkpoint covered to resolve by path and by tags. *)
    let check_after r =
      let img =
        Printf.sprintf ".hfadbench-ingest-%d.img" (Unix.getpid ())
      in
      Device.save dev img;
      let dev' = Device.load img in
      Sys.remove img;
      match Fs.open_existing ~config dev' with
      | Error e -> fail r ("reopen: " ^ Fs.error_message e)
      | Ok fs' ->
          let posix' = P.mount fs' in
          for i = 0 to !synced - 1 do
            let e = emails.(i) in
            match oids.(i) with
            | None -> ()
            | Some oid ->
                let by_path =
                  match P.resolve posix' e.email_path with
                  | o -> o = oid
                  | exception _ -> false
                in
                let by_tags = List.mem oid (Fs.lookup fs' (tags_of e)) in
                if not (by_path && by_tags) then
                  fail r ("lost after reopen: " ^ e.email_path)
          done;
          P.unmount posix';
          Fs.close fs'
    in
    let probe_keys () =
      let done_ = List.filter_map Fun.id (Array.to_list oids) in
      let sample f = Epoch.distinct (List.map f (Array.to_list (Array.sub emails 0 !synced))) in
      {
        Epoch.tags = sample (fun e -> (Tag.User, e.Corpus.recipient));
        terms = sample (fun e -> e.Corpus.subject);
        oids = Epoch.distinct done_;
        paths = sample (fun e -> e.Corpus.email_path);
      }
    in
    {
      Epoch.fs;
      posix = Some posix;
      measure;
      check_after;
      layers = Epoch.no_layers;
      probe_keys;
      close = (fun () -> P.unmount posix; Fs.close fs);
    }
