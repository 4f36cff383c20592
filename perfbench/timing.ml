(* The traced run's instruments, living in the server process: a
   backend connection that wraps the native one and times each store
   call, and a session runner that times the parse / evaluate / render
   stages of every query. Both record only while [armed], so one server
   can alternate traced and untraced stretches of the same run. *)

module Nepal = Core.Nepal
module B = Nepal.Backend
module J = Nepal.Event_log

let armed = Atomic.make false
let now = Unix.gettimeofday

(* Store-call totals. Parallel walks call the backend from several
   domains at once, hence atomics; nanoseconds keep them integral. *)
type counter = { ns : int Atomic.t; calls : int Atomic.t }

let counter () = { ns = Atomic.make 0; calls = Atomic.make 0 }
let c_select = counter ()
let c_extend = counter ()
let c_presence = counter ()
let c_other = counter ()
let extend_items = Atomic.make 0

let timed c f =
  if not (Atomic.get armed) then f ()
  else begin
    let t0 = now () in
    let r = f () in
    ignore (Atomic.fetch_and_add c.ns (int_of_float ((now () -. t0) *. 1e9)));
    Atomic.incr c.calls;
    r
  end

module Native = Nepal_query.Native_backend

module Timed : B.S with type t = Nepal.Graph_store.t = struct
  include Native

  let select_atom t ~tc a = timed c_select (fun () -> Native.select_atom t ~tc a)

  let bulk_extend t ~tc ~dir ~spec items =
    if Atomic.get armed then
      ignore (Atomic.fetch_and_add extend_items (List.length items));
    timed c_extend (fun () -> Native.bulk_extend t ~tc ~dir ~spec items)

  let presence t ~uid ~window ~pred =
    timed c_presence (fun () -> Native.presence t ~uid ~window ~pred)

  let element_by_uid t ~tc uid =
    timed c_other (fun () -> Native.element_by_uid t ~tc uid)

  let version_boundaries t ~uid ~window =
    timed c_other (fun () -> Native.version_boundaries t ~uid ~window)
end

let timed_conn store =
  B.make (module Timed : B.S with type t = Nepal.Graph_store.t) store

(* -- per-request spans --------------------------------------------------- *)

(* One armed query: request -> runner -> parse / eval (-> select / extend
   / presence) -> render. Fields are stored in this order in the report
   arrays (see [span_fields]). *)
type span = {
  q_hash : int;
  parse_s : float;
  eval_s : float;
  render_s : float;
  select_s : float;
  select_calls : int;
  extend_s : float;
  extend_calls : int;
  extend_items : int;
  presence_s : float;
  presence_calls : int;
  other_calls : int;
  walk_tasks : int;
  domains_used : int;
  frontier_peak : int;
  extend_rounds : int;
  pc_hits : int;
  pc_misses : int;
  pc_invalidations : int;
  paths : int;
  bytes : int;
}

let span_fields =
  [ "q_hash"; "parse_ms"; "eval_ms"; "render_ms"; "select_ms"; "select_calls";
    "extend_ms"; "extend_calls"; "extend_items"; "presence_ms";
    "presence_calls"; "other_calls"; "walk_tasks"; "domains_used";
    "frontier_peak"; "extend_rounds"; "pc_hits"; "pc_misses";
    "pc_invalidations"; "paths"; "bytes" ]

let span_values s =
  let ms x = J.Float (x *. 1e3) and i x = J.Int x in
  [ i s.q_hash; ms s.parse_s; ms s.eval_s; ms s.render_s; ms s.select_s;
    i s.select_calls; ms s.extend_s; i s.extend_calls; i s.extend_items;
    ms s.presence_s; i s.presence_calls; i s.other_calls; i s.walk_tasks;
    i s.domains_used; i s.frontier_peak; i s.extend_rounds; i s.pc_hits;
    i s.pc_misses; i s.pc_invalidations; i s.paths; i s.bytes ]

let spans_lock = Mutex.create ()
let spans : span list ref = ref []  (* newest first *)

let record s =
  Mutex.lock spans_lock;
  spans := s :: !spans;
  Mutex.unlock spans_lock

let take_spans () =
  Mutex.lock spans_lock;
  let l = List.rev !spans in
  spans := [];
  Mutex.unlock spans_lock;
  l

(* Queries with an EXPLAIN prefix take the server's own path. *)
let is_explain text =
  let t = String.trim text in
  String.length t >= 7
  && String.uppercase_ascii (String.sub t 0 7) = "EXPLAIN"

let reply ?trace result =
  {
    Nepal.Server.qr_count = Nepal.Engine.result_count result;
    qr_text = Format.asprintf "%a" Nepal.Engine.pp_result result;
    qr_trace = trace;
  }

let read_counter c = (Atomic.get c.ns, Atomic.get c.calls)

(* The benchmark's session runner: the evaluation the server's default
   runner performs ([Query_parser.parse], [Engine.run_instrumented] with
   the query text, [Engine.pp_result]), over the timing connection. *)
let make_runner store () =
  let conn = timed_conn store in
  fun ~trace text ->
    if trace then
      match Nepal.Explain.run_string_wire_traced ~conn text with
      | Ok tr ->
          Ok
            (reply ~trace:(Nepal.Explain.traced_json tr)
               tr.Nepal.Explain.tr_result)
      | Error e -> Error e
    else if is_explain text then
      Result.map (fun r -> reply r) (Nepal.Explain.run_string ~conn text)
    else if not (Atomic.get armed) then
      match Nepal.Query_parser.parse text with
      | Error e -> Error e
      | Ok q ->
          Result.map reply
            (Nepal.Engine.run_instrumented ~conn ~text:(Some text) q)
    else begin
      let sel0 = read_counter c_select and ext0 = read_counter c_extend in
      let pre0 = read_counter c_presence and oth0 = read_counter c_other in
      let items0 = Atomic.get extend_items in
      let pc = B.cache_counters conn in
      let h0 = pc.B.hits and m0 = pc.B.misses and i0 = pc.B.invalidations in
      let t0 = now () in
      match Nepal.Query_parser.parse text with
      | Error e -> Error e
      | Ok q -> (
          let t1 = now () in
          let stats = Nepal.Eval_rpe.new_stats () in
          let res =
            Nepal.Engine.run_instrumented ~conn ~stats ~text:(Some text) q
          in
          let t2 = now () in
          match res with
          | Error e -> Error e
          | Ok result ->
              let r = reply result in
              let t3 = now () in
              let d c (ns0, calls0) =
                let ns, calls = read_counter c in
                (float_of_int (ns - ns0) /. 1e9, calls - calls0)
              in
              let select_s, select_calls = d c_select sel0 in
              let extend_s, extend_calls = d c_extend ext0 in
              let presence_s, presence_calls = d c_presence pre0 in
              let _, other_calls = d c_other oth0 in
              record
                {
                  q_hash = Hashtbl.hash text;
                  parse_s = t1 -. t0;
                  eval_s = t2 -. t1;
                  render_s = t3 -. t2;
                  select_s;
                  select_calls;
                  extend_s;
                  extend_calls;
                  extend_items = Atomic.get extend_items - items0;
                  presence_s;
                  presence_calls;
                  other_calls;
                  walk_tasks = stats.Nepal.Eval_rpe.walk_tasks;
                  domains_used = stats.Nepal.Eval_rpe.domains_used;
                  frontier_peak = stats.Nepal.Eval_rpe.frontier_peak;
                  extend_rounds = stats.Nepal.Eval_rpe.extends;
                  pc_hits = pc.B.hits - h0;
                  pc_misses = pc.B.misses - m0;
                  pc_invalidations = pc.B.invalidations - i0;
                  paths = r.Nepal.Server.qr_count;
                  bytes = String.length r.Nepal.Server.qr_text;
                };
              Ok r)
    end
