(* The expected answers the output checks compare against, computed
   from the generated corpus alone.

   [tokens] restates the full-text tokenizer's documented contract
   (lowercase, split on non-alphanumerics, drop terms shorter than two
   characters and English stopwords, truncate at 64) rather than
   calling it, so a tokenizer bug shows as a wrong search result. *)

module Oid = Hfad_osd.Oid

let stopwords =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "if";
    "in"; "into"; "is"; "it"; "no"; "not"; "of"; "on"; "or"; "such"; "that";
    "the"; "their"; "then"; "there"; "these"; "they"; "this"; "to"; "was";
    "will"; "with";
  ]

let tokens text =
  let out = ref [] and buf = Buffer.create 16 in
  let flush () =
    let tok = Buffer.contents buf in
    Buffer.clear buf;
    if String.length tok >= 2 then begin
      let tok = if String.length tok > 64 then String.sub tok 0 64 else tok in
      if not (List.mem tok stopwords) then out := tok :: !out
    end
  in
  String.iter
    (fun c ->
      let c = Char.lowercase_ascii c in
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then
        Buffer.add_char buf c
      else flush ())
    text;
  flush ();
  List.sort_uniq String.compare !out

(* Term -> set of documents whose indexed text contains it. *)
type inverted = (string, (Oid.t, unit) Hashtbl.t) Hashtbl.t

let inverted () : inverted = Hashtbl.create 1024

let postings (inv : inverted) term =
  match Hashtbl.find_opt inv term with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.replace inv term s;
      s

let add inv oid text =
  List.iter (fun term -> Hashtbl.replace (postings inv term) oid ()) (tokens text)

let remove inv oid text =
  List.iter (fun term -> Hashtbl.remove (postings inv term) oid) (tokens text)

let sort_oids l = List.sort_uniq Oid.compare l

(* Conjunctive search: documents that contain every term of [query]. *)
let search inv query =
  match tokens query with
  | [] -> []
  | terms ->
      let sets = List.map (postings inv) terms in
      let smallest =
        List.fold_left
          (fun a b -> if Hashtbl.length b < Hashtbl.length a then b else a)
          (List.hd sets) sets
      in
      Hashtbl.fold
        (fun oid () acc ->
          if List.for_all (fun s -> Hashtbl.mem s oid) sets then oid :: acc
          else acc)
        smallest []
      |> sort_oids

(* Attribute index: value -> documents carrying it. *)
type attrs = (string, Oid.t list) Hashtbl.t

let attrs () : attrs = Hashtbl.create 256

let add_attr (a : attrs) value oid =
  Hashtbl.replace a value
    (oid :: Option.value ~default:[] (Hashtbl.find_opt a value))

let lookup (a : attrs) value =
  sort_oids (Option.value ~default:[] (Hashtbl.find_opt a value))
