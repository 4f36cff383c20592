(* Per-layer metrics of a traced run, assembled from four sources: the
   child's per-query timing spans, its registry deltas over the window,
   its pool-spawn probe, and in-process replays of analysis, planning
   and the wire codec. *)

module Nepal = Core.Nepal
module J = Nepal.Event_log
module Json = Nepal.Wire_json

type replay = {
  analysis_ms : float;
  plan_ms : float;
  encode_ms : float;  (* Wire.query_result on the server *)
  frame_read_ms : float;  (* the client's line reader *)
  decode_ms : float;  (* the client's JSON parse *)
  reply_bytes : float;
  codec_ms : (int, float) Hashtbl.t;  (* per query hash: all three, ms *)
}

type read = { ok : bool; lat_ms : float; q_hash : int; shape : string }

type input = {
  registry : J.json;  (* the child's [deltas] object *)
  spans : float array list;  (* [Timing.span_fields] order, armed reads *)
  replay : replay;
  spawn_probe_ms : float;
      (* one Domain_pool.run batch that spawns one domain, timed in the
         server process beside its executor domains *)
  blocks : (bool * float * read list) list;  (* armed, wall seconds, reads *)
  writes : int;
  watches : int;
  write_lat_ms : float list;
  apply_ms : float list;
  alert_ms : float list;
}

let field name =
  let rec go i = function
    | [] -> invalid_arg ("Layers.field: " ^ name)
    | f :: _ when f = name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 Timing.span_fields

let ratio a b = if b > 0. then a /. b else 0.

(* A JSON number as a float; anything else reads 0. *)
let number = function J.Float f -> f | J.Int i -> float_of_int i | _ -> 0.

let member_number path reg =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some reg) path
  |> Option.fold ~none:0. ~some:number

let counter reg name = member_number [ "counters"; name ] reg
let hist reg name key = member_number [ "histograms"; name; key ] reg

(* Mean of a registry histogram's window observations, in ms. *)
let hist_mean_ms reg name =
  1e3 *. ratio (hist reg name "sum_s") (hist reg name "count")

let gc reg key = member_number [ "gc"; key ] reg

let runner_ms s =
  s.(field "parse_ms") +. s.(field "eval_ms") +. s.(field "render_ms")

let codec_ms rp r = Option.value ~default:0. (Hashtbl.find_opt rp.codec_ms r.q_hash)

(* Armed reads and spans in the same order; a hash mismatch (a read the
   runner did not see) skips the read. *)
let rec pair rs ss =
  match (rs, ss) with
  | r :: rs', s :: ss' when r.q_hash = int_of_float s.(field "q_hash") ->
      (r, s) :: pair rs' ss'
  | _ :: rs', _ -> pair rs' ss
  | [], _ -> []

let well_formed i =
  List.filter (fun s -> Array.length s = List.length Timing.span_fields) i.spans

let armed_reads i =
  List.concat_map
    (fun (a, _, rs) -> if a then List.filter (fun r -> r.ok) rs else [])
    i.blocks

let compute i =
  let spans = well_formed i in
  let n = float_of_int (List.length spans) in
  let total f = List.fold_left (fun acc s -> acc +. s.(field f)) 0. spans in
  let per_read f = ratio (total f) n in
  let reg = i.registry in
  let rp = i.replay in
  let window_reads =
    List.fold_left (fun acc (_, _, rs) -> acc + List.length rs) 0 i.blocks
  in
  (* traced vs untraced throughput over the interleaved blocks *)
  let thr armed =
    let reads, secs =
      List.fold_left
        (fun (r, s) (a, dur, rs) ->
          if a = armed then
            (r + List.length (List.filter (fun x -> x.ok) rs), s +. dur)
          else (r, s))
        (0, 0.) i.blocks
    in
    ratio (float_of_int reads) secs
  in
  let store_ms = per_read "select_ms" +. per_read "extend_ms" +. per_read "presence_ms" in
  let queue_ms = hist_mean_ms reg "executor.queue_seconds" in
  (* the lock records a wait only when one happened: spread the total
     over every read (and every write) of the window *)
  let read_wait_ms =
    1e3 *. ratio (hist reg "rwlock.read_wait_seconds" "sum_s") (float_of_int window_reads)
  in
  let dwell_ms = hist_mean_ms reg "outbox.dwell_seconds" in
  (* The armed reads in client order pair one-to-one with the spans;
     each read's unaccounted share is 1 - (its runner stages plus the
     window means of queue, lock wait and outbox dwell, and its query's
     replayed codec time) / its client latency. *)
  let paired = pair (armed_reads i) spans in
  let accounted (r, s) =
    runner_ms s +. queue_ms +. read_wait_ms +. dwell_ms +. codec_ms rp r
  in
  let unaccounted =
    Stats.median (List.map (fun (r, s) -> 1. -. (accounted (r, s) /. r.lat_ms)) paired)
  in
  (* pool spawns: reads whose walks ran on more than one domain paid
     one spawn-and-join per extra domain *)
  let spawn_ms = i.spawn_probe_ms *. (per_read "domains_used" -. 1.) in
  let calls =
    total "select_calls" +. total "extend_calls" +. total "presence_calls"
    +. total "other_calls"
  in
  let evals = counter reg "monitor.evaluations" in
  let changes = counter reg "monitor.changes" in
  let hits = counter reg "planner.cache_hit" and misses = counter reg "planner.cache_miss" in
  let pc_hits = total "pc_hits" and pc_misses = total "pc_misses" in
  let writes = float_of_int i.writes in
  let med l = if l = [] then 0. else Stats.median l in
  [
    ("server.exec_queue_ms", queue_ms, "ms");
    ("server.outbox_dwell_ms", dwell_ms, "ms");
    ("server.reply_bytes", rp.reply_bytes, "bytes");
    ("wire.encode_ms", rp.encode_ms, "ms");
    ("wire.frame_read_ms", rp.frame_read_ms, "ms");
    ("wire.decode_ms", rp.decode_ms, "ms");
    ("rwlock.read_wait_ms", read_wait_ms, "ms");
    ( "rwlock.write_wait_ms",
      1e3 *. ratio (hist reg "rwlock.write_wait_seconds" "sum_s") (float_of_int i.writes),
      "ms" );
    ("eval.walk_tasks", per_read "walk_tasks", "count");
    ("eval.domains_used", per_read "domains_used", "count");
    ("pool.spawn_ms", spawn_ms, "ms");
    ("eval.frontier_peak", per_read "frontier_peak", "count");
    ("eval.extend_rounds", per_read "extend_rounds", "count");
    ("query.parse_ms", per_read "parse_ms", "ms");
    ("query.eval_ms", per_read "eval_ms", "ms");
    ( "query.eval_self_ms",
      per_read "eval_ms" -. store_ms -. rp.plan_ms -. rp.analysis_ms -. spawn_ms,
      "ms" );
    ("query.render_ms", per_read "render_ms", "ms");
    ( "query.runner_ms",
      per_read "parse_ms" +. per_read "eval_ms" +. per_read "render_ms",
      "ms" );
    ("analysis.ms", rp.analysis_ms, "ms");
    ("planner.plan_ms", rp.plan_ms, "ms");
    ("planner.cache_hit_ratio", ratio hits (hits +. misses), "ratio");
    ("store.select_ms", per_read "select_ms", "ms");
    ("store.select_calls", per_read "select_calls", "count");
    ("store.extend_ms", per_read "extend_ms", "ms");
    ("store.extend_items", per_read "extend_items", "count");
    ("store.presence_ms", per_read "presence_ms", "ms");
    ("store.presence_calls", per_read "presence_calls", "count");
    ("store.calls_per_path", ratio calls (total "paths"), "count");
    ("store.write_apply_ms", med i.apply_ms, "ms");
    ("pcache.hit_ratio", ratio pc_hits (pc_hits +. pc_misses), "ratio");
    ("pcache.invalidations_per_write", ratio (total "pc_invalidations") writes, "count");
    ("monitor.evals_per_write", ratio evals writes, "count");
    ( "monitor.skipped_ratio",
      ratio (counter reg "monitor.skipped") (changes *. float_of_int i.watches),
      "ratio" );
    ("monitor.eval_ms", hist_mean_ms reg "monitor.eval_seconds", "ms");
    ("monitor.debounce_ms", hist_mean_ms reg "monitor.debounce_seconds", "ms");
    ("churn.write_p50_ms", med i.write_lat_ms, "ms");
    ("churn.alert_p50_ms", med i.alert_ms, "ms");
    ( "churn.alert_p95_ms",
      (if i.alert_ms = [] then 0. else Stats.quantile 0.95 i.alert_ms),
      "ms" );
    ( "gc.minor_words_per_read",
      ratio (gc reg "minor_words") (float_of_int window_reads),
      "words" );
    ("gc.major_collections", gc reg "major_collections", "count");
    ("trace.unaccounted_frac", unaccounted, "fraction");
    ("trace.overhead_frac", 1. -. ratio (thr true) (thr false), "fraction");
  ]

(* Where a read's time goes, as mean ms per read and share of the
   summed stages: the check that a workload's stated heavy layer is the
   heavy one. *)
let breakdown metrics =
  let get n =
    match List.find_opt (fun (m, _, _) -> m = n) metrics with
    | Some (_, v, _) -> v
    | None -> 0.
  in
  let fixed =
    [ ("parse", "query.parse_ms"); ("analysis", "analysis.ms");
      ("plan", "planner.plan_ms"); ("executor queue", "server.exec_queue_ms");
      ("read-lock wait", "rwlock.read_wait_ms");
      ("outbox dwell", "server.outbox_dwell_ms"); ("pool spawn", "pool.spawn_ms") ]
  in
  let data =
    [ ("store extend", "store.extend_ms"); ("render", "query.render_ms");
      ("wire encode", "wire.encode_ms"); ("frame read", "wire.frame_read_ms");
      ("json decode", "wire.decode_ms") ]
  in
  let other =
    [ ("store select", "store.select_ms"); ("store presence", "store.presence_ms");
      ("eval self", "query.eval_self_ms") ]
  in
  let total =
    List.fold_left (fun s (_, m) -> s +. get m) 0. (fixed @ data @ other)
  in
  let share v = 100. *. ratio v total in
  let lines group =
    List.map
      (fun (label, m) ->
        Printf.sprintf "    %-16s %10.4f ms %6.1f%%" label (get m) (share (get m)))
      group
  in
  let sum group = List.fold_left (fun s (_, m) -> s +. get m) 0. group in
  [ Printf.sprintf "  per-request fixed stages: %.1f%%" (share (sum fixed)) ]
  @ lines fixed
  @ [ Printf.sprintf "  data-proportional stages (extend, render, codec): %.1f%%"
        (share (sum data)) ]
  @ lines data
  @ [ Printf.sprintf "  other: %.1f%%" (share (sum other)) ]
  @ lines other

(* Median stage times per shape over the timed reads: the heavy stage of
   a mix's cheap and expensive families, which means hide. *)
let per_shape i =
  let paired = pair (armed_reads i) (well_formed i) in
  let shapes =
    List.fold_left
      (fun acc (r, _) -> if List.mem r.shape acc then acc else acc @ [ r.shape ])
      [] paired
  in
  List.map
    (fun sh ->
      let ps = List.filter (fun (r, _) -> r.shape = sh) paired in
      let med f = Stats.median (List.map f ps) in
      let span f (_, s) = s.(field f) in
      Printf.sprintf
        "    %-18s n=%5d client %7.3f  runner %7.3f (parse %.3f, eval %.3f, render \
         %.3f; store %.3f)  codec %.3f ms"
        sh (List.length ps)
        (med (fun (r, _) -> r.lat_ms))
        (med (fun (_, s) -> runner_ms s))
        (med (span "parse_ms")) (med (span "eval_ms")) (med (span "render_ms"))
        (med (fun (_, s) ->
             s.(field "select_ms") +. s.(field "extend_ms") +. s.(field "presence_ms")))
        (med (fun (r, _) -> codec_ms i.replay r)))
    shapes
