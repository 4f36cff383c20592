(* The answer oracle: every distinct query of a workload evaluated
   in-process on the same seeded store, so each wire reply can be
   judged by result count and a digest of its exact rendering. Also the
   watch-consistency check of the churn workload. *)

module Nepal = Core.Nepal

type answer = { count : int; digest : Digest.t }

type t = {
  answers : (string, answer) Hashtbl.t;
  texts : (string, int * string) Hashtbl.t;  (* count, exact rendering *)
  normalize : string -> string;  (* applied to both sides before digesting *)
}

let render result = Format.asprintf "%a" Nepal.Engine.pp_result result

(* The same evaluation entry the server's default runner uses, so the
   oracle's rendering is byte-for-byte what a correct server sends. *)
let build ?(normalize = Fun.id) store queries =
  let conn = Nepal.native_conn store in
  let t =
    {
      answers = Hashtbl.create (List.length queries);
      texts = Hashtbl.create (List.length queries);
      normalize;
    }
  in
  let rec go = function
    | [] -> Ok t
    | q :: rest -> (
        match Nepal.Explain.run_string ~conn q with
        | Error e -> Error (Printf.sprintf "oracle evaluation failed for %s: %s" q e)
        | Ok r ->
            let text = render r in
            let count = Nepal.Engine.result_count r in
            Hashtbl.replace t.answers q
              { count; digest = Digest.string (normalize text) };
            Hashtbl.replace t.texts q (count, text);
            go rest)
  in
  go queries

(* -- clipping validity to the pre-write clock ------------------------------ *)

(* Range answers carry maximal validity ranges, so a write after the
   window can still end an interval the answer printed as open. Under
   churn both the oracle's and the server's renderings are compared
   with every interval set of the text ("{[a, b), [c, )}") clipped to
   the pre-write clock [until]: ends past it (or open) become [until],
   intervals starting at or after it are dropped. Timestamps are fixed
   width ("YYYY-MM-DD HH:MM:SS"), so string order is time order. *)
let clip_intervals ~until text =
  let b = Buffer.create (String.length text) in
  let n = String.length text in
  let clip_set inner =
    String.split_on_char '[' inner
    |> List.filter_map (fun piece ->
           match String.index_opt piece ',' with
           | None -> None
           | Some c ->
               let start = String.sub piece 0 c in
               let rest = String.sub piece (c + 1) (String.length piece - c - 1) in
               let close =
                 match (String.index_opt rest ')', String.index_opt rest ']') with
                 | Some i, Some j -> min i j
                 | Some i, None | None, Some i -> i
                 | None, None -> String.length rest
               in
               let stop = String.trim (String.sub rest 0 close) in
               if String.compare start until >= 0 then None
               else if stop = "" || String.compare stop until > 0 then
                 Some (Printf.sprintf "[%s, %s)" start until)
               else Some (Printf.sprintf "[%s, %s%c" start stop rest.[close]))
    |> String.concat ", "
  in
  let rec go i =
    if i >= n then ()
    else
      match text.[i] with
      | '{' -> (
          match String.index_from_opt text i '}' with
          | Some j ->
              Buffer.add_char b '{';
              Buffer.add_string b (clip_set (String.sub text (i + 1) (j - i - 1)));
              Buffer.add_char b '}';
              go (j + 1)
          | None ->
              Buffer.add_string b (String.sub text i (n - i)))
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let judge t q ~count ~text =
  match Hashtbl.find_opt t.answers q with
  | None -> Error ("no oracle answer for: " ^ q)
  | Some a when a.count <> count ->
      Error (Printf.sprintf "count %d, expected %d for: %s" count a.count q)
  | Some a when not (Digest.equal a.digest (Digest.string (t.normalize text))) ->
      Error (Printf.sprintf "reply text differs from the oracle's for: %s" q)
  | Some _ -> Ok ()

(* -- watch consistency --------------------------------------------------- *)

module Sset = Set.Make (String)

(* A single-variable reply rendered by [Engine.pp_result] ("  P = path"
   lines) in the form alert frames use for the same rows ("P: path"). *)
let rows_of_text text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         match String.index_opt line '=' with
         | Some i when i > 0 && line.[i - 1] = ' ' ->
             let var = String.sub line 0 (i - 1) in
             let path =
               String.trim (String.sub line (i + 1) (String.length line - i - 1))
             in
             Some (var ^ ": " ^ path)
         | _ -> None)
  |> Sset.of_list

type alert = { added : string list; removed : string list; dropped : int }

(* Replay a watch's alerts, in arrival order, over its baseline. *)
let rebuild baseline alerts =
  List.fold_left
    (fun set a ->
      let set = List.fold_left (fun s p -> Sset.remove p s) set a.removed in
      List.fold_left (fun s p -> Sset.add p s) set a.added)
    baseline alerts

let check_watch ~baseline ~alerts ~fresh =
  match List.find_opt (fun a -> a.dropped > 0) alerts with
  | Some a -> Error (Printf.sprintf "%d alert(s) dropped" a.dropped)
  | None ->
      let rebuilt = rebuild baseline alerts in
      if Sset.equal rebuilt fresh then Ok ()
      else
        Error
          (Printf.sprintf
             "rebuilt set (%d rows) differs from a fresh query (%d rows): %d \
              missing, %d extra"
             (Sset.cardinal rebuilt) (Sset.cardinal fresh)
             (Sset.cardinal (Sset.diff fresh rebuilt))
             (Sset.cardinal (Sset.diff rebuilt fresh)))
