(* The load generator: starts the server as a child process, drives one
   workload over the wire, judges every reply against the in-process
   oracle, and prints the metrics. With [~trace:true] it prints the
   per-layer metrics instead, from the child's timing runner, registry
   deltas and in-process replays. *)

module Nepal = Core.Nepal
module J = Nepal.Event_log
module Json = Nepal.Wire_json
module Client = Nepal.Server_client
module W = Workload

let now = Unix.gettimeofday

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* -- the server child ----------------------------------------------------- *)

type child = {
  pid : int;
  to_c : out_channel;
  from_c : in_channel;
  port : int;
  setup_s : float;  (* the child's own set-up work, stamped inside it *)
}

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () = List.iter reap !live

let spawn ~kind ~trace ~spans_file =
  let exe = Sys.executable_name in
  let c_in, p_out = Unix.pipe ~cloexec:true () in
  let p_in, c_out = Unix.pipe ~cloexec:true () in
  let args =
    [ exe; "serve"; "--workload"; W.name kind; "--trace";
      (if trace then "1" else "0") ]
    @ match spans_file with Some f -> [ "--spans"; f ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) c_in c_out Unix.stderr in
  Unix.close c_in;
  Unix.close c_out;
  live := pid :: !live;
  let to_c = Unix.out_channel_of_descr p_out in
  let from_c = Unix.in_channel_of_descr p_in in
  match String.split_on_char ' ' (input_line from_c) with
  | [ "port"; p; "setup"; s ] ->
      { pid; to_c; from_c; port = int_of_string p; setup_s = float_of_string s }
  | _ -> abort "server child: unexpected greeting"
  | exception End_of_file -> abort "server child exited before listening"

let command c line =
  output_string c.to_c (line ^ "\n");
  flush c.to_c;
  match input_line c.from_c with
  | l -> l
  | exception End_of_file -> abort "server child died during %S" line

let command_json c line =
  match Json.parse (command c line) with
  | Ok j -> j
  | Error e -> abort "server child answered %S with bad JSON: %s" line e

let stop_child c =
  ignore (command c "stop");
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) c.pid) !live;
  close_in_noerr c.from_c;
  close_out_noerr c.to_c

let connect port =
  match Client.connect ~port () with
  | Ok c -> c
  | Error e -> abort "connect: %s" e

let greet client =
  match Client.next_event ~timeout_s:60. client with
  | Some j when Json.string_field "event" j = Some "hello" -> ()
  | _ -> abort "no hello frame from the server"

(* -- /proc readings of the child ------------------------------------------ *)

let read_proc path =
  (* /proc files report length 0; read them line by line *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

let clk_tck = 100.

(* user + system CPU ticks of the whole process, exited threads included *)
let cpu_ticks pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (List.filter (( <> ) "") (String.split_on_char ' ' rest)) in
  int_of_string f.(11) + int_of_string f.(12)

let vm_hwm_mb pid =
  read_proc (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:0.

(* -- outcome bookkeeping --------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (* error frames, refused or broken connections *)
  mutable wrong : int;  (* answers the oracle rejects *)
  mutable notes : string list;
}

let new_tally () = { attempted = 0; failed = 0; wrong = 0; notes = [] }
let note t msg = if List.length t.notes < 5 then t.notes <- msg :: t.notes
let correct t = t.wrong = 0 && t.failed = 0

type read = {
  shape : int;
  q : string;
  lat : float;
  ok : bool;
}

let do_read tally oracle client (r : W.request) =
  let t0 = now () in
  let res = Client.query client r.W.q in
  let lat = now () -. t0 in
  tally.attempted <- tally.attempted + 1;
  let ok =
    match res with
    | Error e ->
        tally.failed <- tally.failed + 1;
        note tally ("read failed: " ^ e);
        false
    | Ok rep -> (
        match
          Oracle.judge oracle r.W.q ~count:rep.Nepal.Server.qr_count
            ~text:rep.Nepal.Server.qr_text
        with
        | Ok () -> true
        | Error e ->
            tally.wrong <- tally.wrong + 1;
            note tally ("wrong answer: " ^ e);
            false)
  in
  { shape = r.W.shape; q = r.W.q; lat; ok }

(* -- the measured window ----------------------------------------------------- *)

type block = {
  b_start : float;
  b_end : float;
  b_reads : read list;
  b_ticks : int;  (* server CPU ticks at the block's end *)
  b_armed : bool;
}

(* Whole blocks until [seconds] have passed. In a traced run even blocks
   are timed by the child and odd ones are not, which gives the
   interleaved traced-vs-untraced throughput. *)
let run_window ~plan ~first_block ~seconds ~child ~client ~oracle ~trace tally =
  let t_start = now () in
  let ticks0 = cpu_ticks child.pid in
  let rec go b acc =
    if b > 0 && now () -. t_start >= seconds then List.rev acc
    else begin
      let armed = trace && b mod 2 = 0 in
      if trace then ignore (command child (if armed then "arm 1" else "arm 0"));
      let reqs = W.block plan (first_block + b) in
      let b_start = now () in
      let reads =
        Array.to_list (Array.map (do_read tally oracle client) reqs)
      in
      let b_end = now () in
      let blk =
        { b_start; b_end; b_reads = reads; b_ticks = cpu_ticks child.pid;
          b_armed = armed }
      in
      go (b + 1) (blk :: acc)
    end
  in
  let blocks = go 0 [] in
  if trace then ignore (command child "arm 0");
  (ticks0, blocks)

(* Blocks are grouped into chunks of at least [chunk_s] seconds of
   consecutive whole blocks; each chunk keeps the exact mix. *)
let chunk_s = 1.0

let chunks blocks =
  let close cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go cur cur_s acc = function
    | [] -> List.rev (close cur acc)
    | b :: rest ->
        let cur = b :: cur and cur_s = cur_s +. (b.b_end -. b.b_start) in
        if cur_s >= chunk_s then go [] 0. (close cur acc) rest
        else go cur cur_s acc rest
  in
  let cs = go [] 0. [] blocks in
  (* a short tail chunk joins its predecessor *)
  match List.rev cs with
  | last :: prev :: rest
    when List.fold_left (fun s b -> s +. (b.b_end -. b.b_start)) 0. last < chunk_s ->
      List.rev ((prev @ last) :: rest)
  | _ -> cs

type e2e = {
  throughput : float;
  cpu_ms_per_read : float;
  p50_ms : float;
  p95_ms : float;
  p95_how : string;
  chunk_throughput : float list;
  chunk_cpu : float list;
  chunk_p95 : float list;
}

let ok_reads blocks =
  List.concat_map (fun b -> List.filter (fun r -> r.ok) b.b_reads) blocks

(* Per chunk: throughput (correct reads over the chunk's block time) and
   server CPU per correct read. Chunks of every sub-run are pooled and
   the run reports the median chunk, so neither interference shorter
   than half the window nor one unlucky server process moves it.
   Latency quantiles are medians of per-chunk quantiles when every chunk
   keeps at least ten samples beyond its p95 rank, pooled over the
   window otherwise. *)
let end_to_end subs =
  let per_chunk =
    List.concat_map
      (fun (ticks0, blocks) ->
        let _, acc =
          List.fold_left
            (fun (prev_ticks, acc) chunk ->
              let last = List.nth chunk (List.length chunk - 1) in
              let reads = ok_reads chunk in
              let n = float_of_int (max 1 (List.length reads)) in
              let dur =
                List.fold_left (fun s b -> s +. (b.b_end -. b.b_start)) 0. chunk
              in
              let cpu_ms =
                float_of_int (last.b_ticks - prev_ticks) *. 1000. /. clk_tck
              in
              let lats = List.map (fun r -> r.lat *. 1e3) reads in
              (last.b_ticks, (n /. dur, cpu_ms /. n, lats) :: acc))
            (ticks0, []) (chunks blocks)
        in
        List.rev acc)
      subs
  in
  let thr = List.map (fun (t, _, _) -> t) per_chunk in
  let cpu = List.map (fun (_, c, _) -> c) per_chunk in
  let chunk_lats = List.map (fun (_, _, l) -> l) per_chunk in
  let beyond l = List.length l - snd (Stats.nearest_rank 0.95 l) in
  let min_beyond = List.fold_left (fun m l -> min m (beyond l)) max_int chunk_lats in
  let pooled = List.concat chunk_lats in
  let p50, p95, p95_how =
    if min_beyond >= 10 then
      ( Stats.median (List.map (Stats.quantile 0.5) chunk_lats),
        Stats.median (List.map (Stats.quantile 0.95) chunk_lats),
        Printf.sprintf
          "median of %d chunk quantiles, each chunk n>=%d with >=%d beyond its p95 rank"
          (List.length chunk_lats)
          (List.fold_left (fun m l -> min m (List.length l)) max_int chunk_lats)
          min_beyond )
    else
      let v, rank = Stats.nearest_rank 0.95 pooled in
      ( Stats.quantile 0.5 pooled,
        v,
        Printf.sprintf "pooled over the window, n=%d, p95 rank %d (%d beyond)"
          (List.length pooled) rank
          (List.length pooled - rank) )
  in
  {
    throughput = Stats.median thr;
    cpu_ms_per_read = Stats.median cpu;
    p50_ms = p50;
    p95_ms = p95;
    p95_how;
    chunk_throughput = thr;
    chunk_cpu = cpu;
    chunk_p95 = List.map (Stats.quantile 0.95) chunk_lats;
  }

(* -- churn: writes, alerts, watch consistency --------------------------------- *)

type alert_rec = { recv : float; watch : int; alert : Oracle.alert; latency_ms : float option }

let float_field name j = Option.map Layers.number (Json.member name j)

let strings name j =
  match Json.list_field name j with
  | Some l -> List.filter_map (function J.Str s -> Some s | _ -> None) l
  | None -> []

let start_alert_reader client =
  let stop = Atomic.make false in
  let lock = Mutex.create () in
  let alerts = ref [] in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Client.next_event ~timeout_s:0.1 client with
          | Some j when Json.string_field "event" j = Some "alert" ->
              let recv = now () in
              let a =
                {
                  recv;
                  watch = Option.value ~default:(-1) (Json.int_field "watch" j);
                  alert =
                    {
                      Oracle.added = strings "added" j;
                      removed = strings "removed" j;
                      dropped = Option.value ~default:0 (Json.int_field "dropped" j);
                    };
                  latency_ms = float_field "latency_ms" j;
                }
              in
              Mutex.lock lock;
              alerts := a :: !alerts;
              Mutex.unlock lock
          | _ -> ()
        done)
      ()
  in
  let snapshot () =
    Mutex.lock lock;
    let l = List.rev !alerts in
    Mutex.unlock lock;
    l
  in
  let finish () =
    Atomic.set stop true;
    Thread.join th;
    snapshot ()
  in
  (snapshot, finish)

type write = {
  due : float;
  requested : float;  (* asked for the write lock *)
  locked : float;
  applied : float;
  commit : float;
}

(* The child's [churn-wait] answer: the committed writes, and the error
   that ended the churn early, if one did. *)
let writes_of_json j =
  match Json.list_field "writes" j with
  | None -> abort "churn-wait: no writes in the answer"
  | Some l ->
      ( List.map
          (fun w ->
            match w with
            | J.List [ d; r; l; a; c ] ->
                let f = Layers.number in
                { due = f d; requested = f r; locked = f l; applied = f a; commit = f c }
            | _ -> abort "churn-wait: malformed write")
          l,
        Json.string_field "error" j )

(* Every write the run asked for is attempted; each one the child did not
   commit is failed. *)
let account_writes tally ~requested ~error writes =
  tally.attempted <- tally.attempted + requested;
  let missing = requested - List.length writes in
  if missing > 0 then begin
    tally.failed <- tally.failed + missing;
    note tally
      (Printf.sprintf "%d of %d writes not committed%s" missing requested
         (Option.fold ~none:"" ~some:(( ^ ) ": ") error))
  end

(* The oldest write behind an alert: its origin stamp is the frame's
   build time minus [latency_ms], so the latest write that entered its
   critical section before [recv - latency_ms] is the one. *)
let alert_latencies writes alerts =
  let ws = Array.of_list writes in
  List.filter_map
    (fun a ->
      match a.latency_ms with
      | None -> None
      | Some l ->
          let origin = a.recv -. (l /. 1e3) in
          let best = ref None in
          Array.iter (fun w -> if w.locked <= origin +. 5e-4 then best := Some w) ws;
          Option.map (fun w -> (a.recv -. w.commit) *. 1e3) !best)
    alerts

(* -- per-layer replays (traced run) -------------------------------------------- *)

(* Mean wall time of [f] over a few calls after one untimed call. *)
let time_mean f =
  let reps = 3 in
  ignore (f ());
  let t0 = now () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (now () -. t0) /. float_of_int reps

(* Wall time of reading one frame through the wire line reader, the
   frame written from another thread over a socket pair. *)
let frame_read_time frame =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Thread.create (fun () -> Nepal_server.Net.write_all a frame) () in
  let lr = Nepal_server.Net.line_reader b in
  let t0 = now () in
  let outcome = Nepal_server.Net.read_line lr in
  let dt = now () -. t0 in
  Thread.join writer;
  Unix.close a;
  Unix.close b;
  match outcome with
  | Nepal_server.Net.Line _ -> dt
  | _ -> abort "frame replay: the line reader did not return the frame"

(* Analysis, planning and the wire codec (server-side encode, client-side
   frame read and JSON parse) replayed in-process on every distinct query
   of the window, weighted by how often it was asked. *)
let replay conn (oracle : Oracle.t) weights =
  let schema = Nepal.Backend.conn_schema conn in
  let codec_ms = Hashtbl.create 256 in
  let tot = ref 0. in
  let acc = Array.make 6 0. in
  Hashtbl.iter
    (fun q w ->
      let w = float_of_int w in
      match Nepal.Query_parser.parse q with
      | Error _ -> ()
      | Ok ast ->
          let count, text = Hashtbl.find oracle.Oracle.texts q in
          let analysis =
            time_mean (fun () ->
                Nepal.Analysis.analyze ~schema
                  ~cost:(fun _ a -> Nepal.Backend.estimate_atom conn a)
                  ast)
          in
          let plan = time_mean (fun () -> Nepal.Engine.plan ~conn ast) in
          let encode () = Nepal.Wire.query_result ~id:(J.Int 1) ~count ~text () in
          let frame = encode () in
          let enc = time_mean encode in
          let read =
            Stats.mean (List.init 3 (fun _ -> frame_read_time frame))
          in
          let dec = time_mean (fun () -> Json.parse frame) in
          Hashtbl.replace codec_ms (Hashtbl.hash q) ((enc +. read +. dec) *. 1e3);
          List.iteri
            (fun i v -> acc.(i) <- acc.(i) +. (w *. v))
            [ analysis; plan; enc; read; dec; float_of_int (String.length frame) ];
          tot := !tot +. w)
    weights;
  let m i = if !tot > 0. then acc.(i) /. !tot else 0. in
  {
    Layers.analysis_ms = m 0 *. 1e3;
    plan_ms = m 1 *. 1e3;
    encode_ms = m 2 *. 1e3;
    frame_read_ms = m 3 *. 1e3;
    decode_ms = m 4 *. 1e3;
    reply_bytes = m 5;
    codec_ms;
  }

(* -- output ------------------------------------------------------------------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* -- the run -------------------------------------------------------------------- *)

(* Everything one server child contributes to a run. *)
type sub = {
  setups : float list;  (* each child's set-up work, stamped inside it *)
  greeted_s : float;  (* spawn -> first session greeted, for the report *)
  ticks0 : int;
  blocks : block list;
  rss_mb : float;
  writes : write list;
  alerts : int;
  alert_ms : float list;
  layers : (string * float * string) list;  (* traced run only *)
  shape_lines : string list;  (* traced run only *)
}

type ctx = {
  kind : W.kind;
  seed : int;
  plan : W.plan;
  oracle : Oracle.t;
  conn : Nepal.Backend.conn option;  (* the oracle's store, traced runs only *)
  distinct : string list;
  watch_qs : string list;
  trace : bool;
  spans_file : string option;
  tally : tally;
}

let judged_rows ctx client q =
  ctx.tally.attempted <- ctx.tally.attempted + 1;
  match Client.query client q with
  | Error e -> abort "watch baseline query failed: %s" e
  | Ok r -> (
      match
        Oracle.judge ctx.oracle q ~count:r.Nepal.Server.qr_count
          ~text:r.Nepal.Server.qr_text
      with
      | Ok () -> Oracle.rows_of_text r.Nepal.Server.qr_text
      | Error e -> abort "watch baseline: %s" e)

(* After the writes: wait until alerts stop arriving, then check every
   watch's alert-rebuilt result set against a fresh query. *)
let churn_epilogue ctx child client ~requested watches (snapshot, finish) =
  let tally = ctx.tally in
  let writes, error = writes_of_json (command_json child "churn-wait") in
  account_writes tally ~requested ~error writes;
  let last_commit = List.fold_left (fun m w -> Float.max m w.commit) 0. writes in
  let deadline = now () +. 5. in
  let rec settle () =
    let last_alert =
      List.fold_left (fun m a -> Float.max m a.recv) last_commit (snapshot ())
    in
    if now () -. last_alert < 0.5 && now () < deadline then begin
      Thread.delay 0.05;
      settle ()
    end
  in
  settle ();
  let alerts = finish () in
  List.iter
    (fun (wid, (q, baseline)) ->
      tally.attempted <- tally.attempted + 1;
      let mine =
        List.filter_map (fun a -> if a.watch = wid then Some a.alert else None) alerts
      in
      match Client.query client q with
      | Error e ->
          tally.failed <- tally.failed + 1;
          note tally ("watch re-query failed: " ^ e)
      | Ok r -> (
          let fresh = Oracle.rows_of_text r.Nepal.Server.qr_text in
          match Oracle.check_watch ~baseline ~alerts:mine ~fresh with
          | Ok () -> ()
          | Error e ->
              tally.wrong <- tally.wrong + 1;
              note tally (Printf.sprintf "watch %d inconsistent: %s" wid e)))
    watches;
  (writes, List.length alerts, alert_latencies writes alerts)

(* The traced run's per-layer numbers: the child's report, weighted
   in-process replays, and the run's own client-side measurements. *)
let traced_layers ctx child blocks ~writes ~alert_ms =
  let spawn_probe_ms =
    match float_of_string_opt (command child "pool-probe 20") with
    | Some s -> s *. 1e3
    | None -> abort "pool-probe: unexpected answer"
  in
  let rep = command_json child "report" in
  let registry = Option.value ~default:(J.Obj []) (Json.member "registry" rep) in
  let spans =
    Option.value ~default:[] (Json.list_field "spans" rep)
    |> List.map (function J.List vs -> Array.of_list (List.map Layers.number vs) | _ -> [||])
  in
  let weights = Hashtbl.create 256 in
  List.iter
    (fun b ->
      List.iter
        (fun r ->
          if r.ok then
            Hashtbl.replace weights r.q
              (1 + Option.value ~default:0 (Hashtbl.find_opt weights r.q)))
        b.b_reads)
    blocks;
  let blocks =
    List.map
      (fun b ->
        ( b.b_armed,
          b.b_end -. b.b_start,
          List.map
            (fun r ->
              {
                Layers.ok = r.ok;
                lat_ms = r.lat *. 1e3;
                q_hash = Hashtbl.hash r.q;
                shape = W.shape_name ctx.plan.W.shapes.(r.shape);
              })
            b.b_reads ))
      blocks
  in
  let input =
    {
      Layers.registry;
      spans;
      replay = replay (Option.get ctx.conn) ctx.oracle weights;
      spawn_probe_ms;
      blocks;
      writes = List.length writes;
      watches = List.length ctx.watch_qs;
      write_lat_ms = List.map (fun w -> (w.commit -. w.due) *. 1e3) writes;
      apply_ms = List.map (fun w -> (w.applied -. w.locked) *. 1e3) writes;
      alert_ms;
    }
  in
  (Layers.compute input, Layers.per_shape input)

(* Each untraced server child is preceded by children that only set up
   and are killed once they listen, at least two and until their set-ups
   add up to this many seconds. A single set-up varies by about 15% with the moment it runs;
   a cheap one is therefore repeated more, so that every workload's
   [setup_s] median rests on about as much set-up time. *)
let setup_only_s = 0.5

(* One server child: spawn it, greet a session, warm every connection up
   untimed, register the watches, measure [seconds], then the churn
   epilogue and the traced report. *)
let sub_run ctx ~index ~first_block ~seconds =
  let tally = ctx.tally in
  let rec setup_only acc total =
    if List.length acc >= 2 && total >= setup_only_s then List.rev acc
    else begin
      let c = spawn ~kind:ctx.kind ~trace:false ~spans_file:None in
      reap c.pid;
      close_in_noerr c.from_c;
      close_out_noerr c.to_c;
      setup_only (c.setup_s :: acc) (total +. c.setup_s)
    end
  in
  let setups = if ctx.trace then [] else setup_only [] 0. in
  let t0 = now () in
  let child = spawn ~kind:ctx.kind ~trace:ctx.trace ~spans_file:ctx.spans_file in
  let client = connect child.port in
  greet client;
  let greeted_s = now () -. t0 in
  (* untimed warm-up: every distinct query once on the read connection,
     one instance of every shape on the watch connection *)
  List.iter
    (fun q -> ignore (do_read tally ctx.oracle client { W.shape = -1; q }))
    ctx.distinct;
  let churn =
    if ctx.watch_qs = [] then None
    else begin
      let wc = connect child.port in
      greet wc;
      Array.iter
        (fun (s : W.shape) ->
          ignore
            (do_read tally ctx.oracle wc { W.shape = -1; q = s.W.pool.(0) }))
        ctx.plan.W.shapes;
      let baselines = List.map (judged_rows ctx client) ctx.watch_qs in
      let wids =
        List.map
          (fun q ->
            match Client.watch wc q with
            | Ok id -> id
            | Error e -> abort "watch registration failed: %s" e)
          ctx.watch_qs
      in
      let reader = start_alert_reader wc in
      Some (wc, List.combine wids (List.combine ctx.watch_qs baselines), reader)
    end
  in
  ignore (command child "mark");
  let n_writes = int_of_float (Float.ceil (W.write_rate_hz *. seconds)) in
  Option.iter
    (fun _ ->
      let r =
        command child (Printf.sprintf "churn %d %d" ((ctx.seed * 100) + index) n_writes)
      in
      if r <> "ok" then abort "churn: %s" r)
    churn;
  let ticks0, blocks =
    run_window ~plan:ctx.plan ~first_block ~seconds ~child ~client
      ~oracle:ctx.oracle ~trace:ctx.trace tally
  in
  let rss_mb = vm_hwm_mb child.pid in
  let writes, alerts, alert_ms =
    match churn with
    | Some (_, watches, reader) ->
        churn_epilogue ctx child client ~requested:n_writes watches reader
    | None -> ([], 0, [])
  in
  let layers, shape_lines =
    if ctx.trace then traced_layers ctx child blocks ~writes ~alert_ms else ([], [])
  in
  Client.close client;
  Option.iter (fun (wc, _, _) -> Client.close wc) churn;
  stop_child child;
  { setups = setups @ [ child.setup_s ]; greeted_s; ticks0; blocks; rss_mb; writes; alerts;
    alert_ms; layers; shape_lines }

(* An untraced run spreads its window over this many server children. *)
let sub_runs = 5

let run ~kind ~seed ~seconds ~trace ~out_dir =
  let tally = new_tally () in
  let t_begin = now () in
  (* the oracle, on the same seeded store, before any child runs *)
  let topo = W.build kind in
  let store = W.store topo in
  let shapes = W.shapes kind topo in
  let plan = W.plan ~seed shapes in
  let watch_qs =
    match topo with
    | W.Virt vt when kind = W.Virt_churn_watch -> W.watch_queries vt
    | _ -> []
  in
  let distinct = W.distinct_queries shapes in
  let normalize =
    if kind = W.Virt_churn_watch then
      Oracle.clip_intervals
        ~until:(Nepal.Time_point.to_string (Nepal.Graph_store.clock store))
    else Fun.id
  in
  let oracle =
    match Oracle.build ~normalize store (distinct @ watch_qs) with
    | Ok o -> o
    | Error e -> abort "%s" e
  in
  say "workload %s seed %d: %d shapes, %d-read blocks, %d distinct queries (oracle %.2fs)"
    (W.name kind) seed (Array.length plan.W.shapes) (W.block_size plan)
    (List.length distinct) (now () -. t_begin);
  let spans_file =
    if trace then
      Some
        (Filename.concat out_dir
           (Printf.sprintf "spans-%s-seed%d.jsonl" (W.name kind) seed))
    else None
  in
  let ctx =
    {
      kind;
      seed;
      plan;
      oracle;
      conn = (if trace then Some (Nepal.native_conn store) else None);
      distinct;
      watch_qs;
      trace;
      spans_file;
      tally;
    }
  in
  (* An untraced run needs only the oracle's answers: the load
     generator gives its copy of the store back before measuring. *)
  if not trace then Gc.compact ();
  let n_subs = if trace then 1 else sub_runs in
  (* the children continue one block sequence *)
  let subs =
    List.fold_left
      (fun acc index ->
        let first_block = List.fold_left (fun n s -> n + List.length s.blocks) 0 acc in
        acc @ [ sub_run ctx ~index ~first_block ~seconds:(seconds /. float_of_int n_subs) ])
      [] (List.init n_subs Fun.id)
  in
  let e = end_to_end (List.map (fun s -> (s.ticks0, s.blocks)) subs) in
  let blocks = List.concat_map (fun s -> s.blocks) subs in
  let window_reads = List.concat_map (fun b -> b.b_reads) blocks in
  let writes = List.concat_map (fun s -> s.writes) subs in
  let alert_ms = List.concat_map (fun s -> s.alert_ms) subs in
  let correct = correct tally in
  let served =
    float_of_int (tally.attempted - tally.failed - tally.wrong)
    /. float_of_int (max 1 tally.attempted)
  in
  List.iter (fun n -> say "!! %s" n) (List.rev tally.notes);
  let setups = List.concat_map (fun s -> s.setups) subs in
  say "setup_s: median of %d server children: %s" (List.length setups)
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%.3f" s) setups));
  say "measured children, spawn to greeted session: %s"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.greeted_s) subs));
  say "window: %d server children, %d blocks, %d reads; per chunk q/s: %s" n_subs
    (List.length blocks) (List.length window_reads)
    (String.concat " " (List.map (Printf.sprintf "%.1f") e.chunk_throughput));
  say "server cpu ms/read per chunk: %s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") e.chunk_cpu));
  say "read p95 ms per chunk: %s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") e.chunk_p95));
  say "read quantiles: %s" e.p95_how;
  (let lats = List.filter_map (fun r -> if r.ok then Some (r.lat *. 1e3) else None) window_reads in
   say "read latency ladder (pooled, ms): %s"
     (String.concat "  "
        (List.map
           (fun q -> Printf.sprintf "p%g %.3f" (q *. 100.) (Stats.quantile q lats))
           [ 0.5; 0.8; 0.9; 0.95; 0.97; 0.99 ])));
  Array.iteri
    (fun i (sh : W.shape) ->
      let l =
        List.filter_map
          (fun r -> if r.shape = i && r.ok then Some (r.lat *. 1e3) else None)
          window_reads
      in
      if l <> [] then
        say "  %-18s n=%5d p50 %8.3f ms  p95 %8.3f ms" (W.shape_name sh)
          (List.length l) (Stats.median l) (Stats.quantile 0.95 l))
    plan.W.shapes;
  if writes <> [] then begin
    let write_lat = List.map (fun w -> (w.commit -. w.due) *. 1e3) writes in
    let v, rank = Stats.nearest_rank 0.95 alert_ms in
    let lag = List.map (fun w -> (w.requested -. w.due) *. 1e3) writes in
    say
      "churn: %d writes at %g/s (write_p50_ms %.3f; generator lag p50 %.3f ms, max \
       %.3f ms), %d alerts on %d watches per child"
      (List.length writes) W.write_rate_hz (Stats.median write_lat) (Stats.median lag)
      (List.fold_left Float.max 0. lag)
      (List.fold_left (fun n s -> n + s.alerts) 0 subs)
      (List.length watch_qs);
    say "churn: alert_p50_ms %.3f  alert_p95_ms %.3f (n=%d, rank %d)"
      (Stats.median alert_ms) v (List.length alert_ms) rank
  end;
  let metrics =
    if trace then List.concat_map (fun s -> s.layers) subs
    else
      [
        ("setup_s", Stats.median setups, "s");
        ("read_p50_ms", e.p50_ms, "ms");
        ("read_p95_ms", e.p95_ms, "ms");
        ("throughput_qps", e.throughput, "q/s");
        ("server_cpu_ms_per_read", e.cpu_ms_per_read, "ms");
        ("served_frac", served, "fraction");
        ("peak_rss_mb", Stats.median (List.map (fun s -> s.rss_mb) subs), "MB");
      ]
  in
  if trace then begin
    let thr armed =
      let bs = List.filter (fun b -> b.b_armed = armed) blocks in
      float_of_int (List.length (ok_reads bs))
      /. List.fold_left (fun s b -> s +. (b.b_end -. b.b_start)) 0. bs
    in
    say "throughput: armed blocks %.1f q/s, unarmed blocks %.1f q/s" (thr true)
      (thr false);
    say "stage breakdown (mean per read):";
    List.iter print_endline (Layers.breakdown metrics);
    say "per shape (medians over timed reads):";
    List.iter (fun s -> List.iter print_endline s.shape_lines) subs
  end;
  List.iter (fun (n, v, u) -> say "%-32s %14.4f %s" n v u) metrics;
  say "%s"
    (result_line ~correct ~attempted:tally.attempted
       ~failed:(tally.failed + tally.wrong) metrics);
  correct
