(* The server side of the benchmark: builds the workload's store, starts
   the real [Nepal.Server] on a free port, and takes line commands from
   the load generator on stdin:

     mark          snapshot the metrics registry and GC counters
     arm 0|1       stop / start recording timing spans
     churn SEED N  start N open-loop writes through [Server.with_write]
     churn-wait    wait for the writes; answer with their timestamps
     pool-probe N  time N [Domain_pool.run] batches that spawn one
                   domain, here, beside the server's executor domains
     report        answer with registry deltas since [mark] and the spans
     stop          stop the server, write the span log, exit

   Answers are single lines on stdout; "port N setup S" is printed once
   the server listens, S being the seconds from this process's start of
   work to listening (topology, history, server start). *)

module Nepal = Core.Nepal
module J = Nepal.Event_log
module Metrics = Nepal.Metrics
module W = Workload

type write = {
  due : float;
  requested : float;  (* asked for the write lock *)
  locked : float;  (* inside the critical section *)
  applied : float;  (* mutation done *)
  commit : float;  (* lock released *)
}

(* The registry instruments the per-layer metrics read (see Layers). *)
let counter_names =
  [ "monitor.evaluations"; "monitor.skipped"; "monitor.changes";
    "planner.cache_hit"; "planner.cache_miss" ]

let histogram_names =
  [ "executor.queue_seconds"; "outbox.dwell_seconds";
    "rwlock.read_wait_seconds"; "rwlock.write_wait_seconds";
    "monitor.eval_seconds"; "monitor.debounce_seconds" ]

type mark = { snap : Metrics.snapshot; gc : Gc.stat }

let take_mark () = { snap = Metrics.snapshot (); gc = Gc.quick_stat () }

let counter_of snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Metrics.counter_values)

let hist_of snap name =
  List.find_opt
    (fun h -> h.Metrics.name = name)
    snap.Metrics.histogram_values

(* Registry and GC movement between two marks, as one JSON object. *)
let deltas m0 m1 =
  let counters =
    List.map
      (fun n -> (n, J.Int (counter_of m1.snap n - counter_of m0.snap n)))
      counter_names
  in
  let hists =
    List.map
      (fun n ->
        let count, sum =
          match (hist_of m0.snap n, hist_of m1.snap n) with
          | _, None -> (0, 0.)
          | None, Some h -> (h.Metrics.count, h.Metrics.sum)
          | Some h0, Some h ->
              (h.Metrics.count - h0.Metrics.count, h.Metrics.sum -. h0.Metrics.sum)
        in
        (n, J.Obj [ ("count", J.Int count); ("sum_s", J.Float sum) ]))
      histogram_names
  in
  J.Obj
    [
      ("counters", J.Obj counters);
      ("histograms", J.Obj hists);
      ( "gc",
        J.Obj
          [
            ("minor_words", J.Float (m1.gc.Gc.minor_words -. m0.gc.Gc.minor_words));
            ( "major_collections",
              J.Int (m1.gc.Gc.major_collections - m0.gc.Gc.major_collections) );
          ] );
    ]

let write_json w =
  J.List
    (List.map (fun x -> J.Float x) [ w.due; w.requested; w.locked; w.applied; w.commit ])

(* Open-loop churn: write [i] is due [i / rate] s after the start,
   whether or not earlier writes were late. [with_write] runs its
   argument under the server's write lock and [write i] performs write
   [i]. Each write joins the log when it commits; a write that raises
   ends the churn, and the error comes back with the writes done before
   it. *)
let churn ~with_write ~write ~n =
  let start = Unix.gettimeofday () in
  let log = ref [] in
  let error =
    match
      for i = 0 to n - 1 do
        let due = start +. (float_of_int i /. W.write_rate_hz) in
        let wait = due -. Unix.gettimeofday () in
        if wait > 0. then Thread.delay wait;
        let requested = Unix.gettimeofday () in
        let locked = ref 0. and applied = ref 0. in
        with_write (fun () ->
            locked := Unix.gettimeofday ();
            write i;
            applied := Unix.gettimeofday ());
        let commit = Unix.gettimeofday () in
        log :=
          { due; requested; locked = !locked; applied = !applied; commit } :: !log
      done
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  (List.rev !log, error)

(* The answer to [churn-wait]: the committed writes, and the error that
   ended the churn early, if one did. *)
let churn_answer (writes, error) =
  J.json_to_string
    (J.Obj
       (("writes", J.List (List.map write_json writes))
       :: Option.fold ~none:[] ~some:(fun e -> [ ("error", J.Str e) ]) error))

let write_spans file ~spans ~writes =
  let oc = open_out file in
  List.iteri
    (fun i s ->
      let obj =
        J.Obj
          (("kind", J.Str "query") :: ("request", J.Int i)
          :: List.combine Timing.span_fields (Timing.span_values s))
      in
      output_string oc (J.json_to_string obj ^ "\n"))
    spans;
  List.iter
    (fun w ->
      let ms x = J.Float (x *. 1e3) in
      output_string oc
        (J.json_to_string
           (J.Obj
              [
                ("kind", J.Str "write");
                ("due_wall", J.Float w.due);
                ("schedule_lag_ms", ms (w.requested -. w.due));
                ("lock_wait_ms", ms (w.locked -. w.requested));
                ("apply_ms", ms (w.applied -. w.locked));
                ("commit_wall", J.Float w.commit);
              ])
        ^ "\n"))
    writes;
  close_out oc

(* Mean seconds of one fork-join batch that spawns and joins one extra
   domain, after one untimed batch. *)
let pool_probe reps =
  let batch () = ignore (Nepal_util.Domain_pool.run ~domains:2 [ Fun.id; Fun.id ]) in
  batch ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    batch ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let main ~kind ~trace ~spans_file =
  let t_start = Unix.gettimeofday () in
  let topo = W.build kind in
  let store = W.store topo in
  let config =
    { Nepal.Server.default_config with port = 0; max_sessions = 8 }
  in
  let make_runner = if trace then Some (Timing.make_runner store) else None in
  match Nepal.Server.start ~config ?make_runner store with
  | Error e ->
      prerr_endline ("wirebench serve: " ^ e);
      exit 2
  | Ok server ->
      let answer s =
        print_string (s ^ "\n");
        flush stdout
      in
      answer
        (Printf.sprintf "port %d setup %.17g" (Nepal.Server.port server)
           (Unix.gettimeofday () -. t_start));
      let mark = ref (take_mark ()) in
      let churn_thread = ref None in
      let churn_result = ref ([], None) in
      let all_spans = ref [] in
      let all_writes = ref [] in
      let finish () =
        Nepal.Server.stop server;
        match spans_file with
        | Some f when trace ->
            write_spans f ~spans:(List.rev !all_spans) ~writes:!all_writes
        | _ -> ()
      in
      let rec loop () =
        match input_line stdin with
        | exception End_of_file -> finish ()
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ "mark" ] ->
                mark := take_mark ();
                answer "ok";
                loop ()
            | [ "arm"; v ] ->
                Atomic.set Timing.armed (v = "1");
                answer "ok";
                loop ()
            | [ "churn"; seed; n ] -> (
                match (topo, int_of_string_opt seed, int_of_string_opt n) with
                | W.Virt vt, Some seed, Some n ->
                    let rng = Nepal.Prng.create seed in
                    let base =
                      Nepal.Server.with_write server Nepal.Graph_store.clock
                    in
                    let with_write f =
                      Nepal.Server.with_write server (fun _ -> f ())
                    in
                    let write i = W.churn_write vt ~rng ~base i in
                    churn_thread :=
                      Some
                        (Thread.create
                           (fun () ->
                             churn_result := churn ~with_write ~write ~n)
                           ());
                    answer "ok";
                    loop ()
                | _ ->
                    answer "error bad churn command";
                    loop ())
            | [ "churn-wait" ] ->
                Option.iter Thread.join !churn_thread;
                churn_thread := None;
                all_writes := !all_writes @ fst !churn_result;
                answer (churn_answer !churn_result);
                churn_result := ([], None);
                loop ()
            | [ "pool-probe"; reps ] -> (
                match int_of_string_opt reps with
                | Some r when r > 0 ->
                    answer (Printf.sprintf "%.17g" (pool_probe r));
                    loop ()
                | _ ->
                    answer "error bad pool-probe command";
                    loop ())
            | [ "report" ] ->
                let spans = Timing.take_spans () in
                all_spans := List.rev_append spans !all_spans;
                answer
                  (J.json_to_string
                     (J.Obj
                        [
                          ("registry", deltas !mark (take_mark ()));
                          ( "spans",
                            J.List
                              (List.map
                                 (fun s -> J.List (Timing.span_values s))
                                 spans) );
                        ]));
                loop ()
            | [ "stop" ] ->
                finish ();
                answer "bye"
            | _ ->
                answer ("error unknown command: " ^ line);
                loop ())
      in
      loop ()
