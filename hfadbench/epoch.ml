(* What one set-up store hands the harness. The harness times [setup]
   (format and preload), runs [measure] between two counter snapshots,
   then [check_after], layer probes in traced runs, and [close]. *)

type probe_keys = {
  tags : (Hfad_index.Tag.t * string) array;  (** attribute lookups *)
  terms : string array;  (** full-text queries *)
  oids : Hfad_osd.Oid.t array;  (** objects to read *)
  paths : string array;  (** POSIX paths to resolve; empty without a veneer *)
}

type t = {
  fs : Hfad.Fs.t;
  posix : Hfad_posix.Posix_fs.t option;
  measure : trace:bool -> Recorder.t list * int;
      (** the measured phase: one recorder per client and its wall
          nanoseconds *)
  check_after : Recorder.t -> unit;
      (** output checks that need the store after the phase *)
  layers : Counters.delta -> wall_ns:int -> Recorder.t -> (string * float) list;
      (** workload-specific per-layer metrics (the server's) *)
  probe_keys : unit -> probe_keys;
  close : unit -> unit;
}

let no_layers _ ~wall_ns:_ _ = []

let ok_exn = function
  | Ok v -> v
  | Error e -> failwith (Hfad.Fs.error_message e)

(* Distinct elements, first occurrences, at most [n]. *)
let distinct ?(n = 256) l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      if Hashtbl.length seen >= n || Hashtbl.mem seen x then false
      else (Hashtbl.replace seen x (); true))
    l
  |> Array.of_list
