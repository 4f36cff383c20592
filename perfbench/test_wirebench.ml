(* Tests of the wire benchmark's own machinery: request lists, the
   answer oracle on real wire round trips, the timing runner, and the
   watch-consistency check. *)

module Nepal = Core.Nepal
module B = Nepal_perfbench
module W = B.Workload
module Client = Nepal.Server_client

let virt = lazy (W.build W.Virt_interactive)
let legacy = lazy (W.build W.Legacy_mining)

let blocks plan n = List.init n (W.block plan)

(* -- request lists --------------------------------------------------------- *)

let test_same_seed_same_list () =
  List.iter
    (fun (kind, topo) ->
      let shapes = W.shapes kind (Lazy.force topo) in
      let a = blocks (W.plan ~seed:3 shapes) 40 in
      let b = blocks (W.plan ~seed:3 shapes) 40 in
      let c = blocks (W.plan ~seed:4 shapes) 40 in
      Alcotest.(check bool) (W.name kind ^ ": same seed, same list") true (a = b);
      Alcotest.(check bool) (W.name kind ^ ": other seed, other list") false (a = c))
    [ (W.Virt_interactive, virt); (W.Virt_churn_watch, virt);
      (W.Legacy_mining, legacy) ]

let test_exact_mix () =
  List.iter
    (fun (kind, topo) ->
      let shapes = W.shapes kind (Lazy.force topo) in
      let plan = W.plan ~seed:11 shapes in
      List.iteri
        (fun b reqs ->
          Array.iteri
            (fun i (s : W.shape) ->
              let n =
                Array.fold_left
                  (fun n (r : W.request) ->
                    if r.W.shape = i then begin
                      Alcotest.(check bool) "request drawn from its shape's pool" true
                        (Array.mem r.W.q s.W.pool);
                      n + 1
                    end
                    else n)
                  0 reqs
              in
              Alcotest.(check int)
                (Printf.sprintf "%s block %d: %s" (W.name kind) b (W.shape_name s))
                s.W.per_block n)
            plan.W.shapes)
        (blocks plan 25))
    [ (W.Virt_interactive, virt); (W.Virt_churn_watch, virt);
      (W.Legacy_mining, legacy) ]

let test_reverse_sinks_equal () =
  let shapes = W.shapes W.Legacy_mining (Lazy.force legacy) in
  let plan = W.plan ~seed:5 shapes in
  let counts = Hashtbl.create 8 in
  List.iter
    (Array.iter (fun (r : W.request) ->
         if (plan.W.shapes.(r.W.shape)).W.family = "reverse" then
           Hashtbl.replace counts r.W.q
             (1 + Option.value ~default:0 (Hashtbl.find_opt counts r.W.q))))
    (blocks plan 7);
  Hashtbl.iter (fun _ n -> Alcotest.(check int) "every sink once per block" 7 n) counts;
  Alcotest.(check bool) "every sink asked" true (Hashtbl.length counts > 1)

(* -- wire round trips --------------------------------------------------------- *)

let with_server ?make_runner store f =
  let config = { Nepal.Server.default_config with port = 0 } in
  match Nepal.Server.start ~config ?make_runner store with
  | Error e -> Alcotest.fail e
  | Ok server ->
      Fun.protect
        ~finally:(fun () -> Nepal.Server.stop server)
        (fun () ->
          match Client.connect ~port:(Nepal.Server.port server) () with
          | Error e -> Alcotest.fail e
          | Ok client ->
              Fun.protect ~finally:(fun () -> Client.close client) (fun () ->
                  f server client))

let sample_queries () =
  let shapes = W.shapes W.Virt_interactive (Lazy.force virt) in
  W.distinct_queries shapes |> List.filteri (fun i _ -> i mod 9 = 0)

let reply client q =
  match Client.query client q with Ok r -> r | Error e -> Alcotest.fail e

(* A runner that answers correctly except for one flipped digit. *)
let corrupting store () =
  let inner = B.Timing.make_runner store () in
  fun ~trace q ->
    Result.map
      (fun (r : Nepal.Server.query_reply) ->
        let text = Bytes.of_string r.Nepal.Server.qr_text in
        (match String.index_opt r.Nepal.Server.qr_text '#' with
        | Some i -> Bytes.set text (i + 1) (if Bytes.get text (i + 1) = '9' then '8' else '9')
        | None -> ());
        { r with Nepal.Server.qr_text = Bytes.to_string text })
      (inner ~trace q)

let test_corrupted_reply_caught () =
  let store = W.store (Lazy.force virt) in
  let qs = sample_queries () in
  let oracle = Result.get_ok (B.Oracle.build store qs) in
  let judge client q =
    let r = reply client q in
    B.Oracle.judge oracle q ~count:r.Nepal.Server.qr_count ~text:r.Nepal.Server.qr_text
  in
  with_server store (fun _ client ->
      List.iter
        (fun q -> Alcotest.(check bool) ("genuine: " ^ q) true (judge client q = Ok ()))
        qs);
  with_server ~make_runner:(corrupting store) store (fun _ client ->
      let q = List.find (fun q -> (reply client q).Nepal.Server.qr_count > 0) qs in
      Alcotest.(check bool) "corrupted reply rejected" true (Result.is_error (judge client q)))

let test_timing_runner_identical () =
  let store = W.store (Lazy.force virt) in
  let qs = sample_queries () in
  let answers make_runner =
    with_server ?make_runner store (fun _ client ->
        List.map
          (fun q ->
            let r = reply client q in
            (r.Nepal.Server.qr_count, r.Nepal.Server.qr_text))
          qs)
  in
  let plain = answers None in
  Atomic.set B.Timing.armed true;
  let timed = answers (Some (B.Timing.make_runner store)) in
  Atomic.set B.Timing.armed false;
  let spans = B.Timing.take_spans () in
  Alcotest.(check int) "one span per armed query" (List.length qs) (List.length spans);
  List.iter2
    (fun q (a, b) ->
      Alcotest.(check (pair int string)) ("byte-identical: " ^ q) a b)
    qs (List.combine plain timed)

(* -- watch consistency ---------------------------------------------------------- *)

let alerts_of client ~quiet_s =
  let rec go acc =
    match Client.next_event ~timeout_s:quiet_s client with
    | Some j when Nepal.Wire_json.string_field "event" j = Some "alert" ->
        let strs k =
          match Nepal.Wire_json.list_field k j with
          | Some l -> List.filter_map (function Nepal.Event_log.Str s -> Some s | _ -> None) l
          | None -> []
        in
        go
          ({ B.Oracle.added = strs "added"; removed = strs "removed";
             dropped = Option.value ~default:0 (Nepal.Wire_json.int_field "dropped" j) }
          :: acc)
    | Some _ -> go acc
    | None -> List.rev acc
  in
  go []

let test_dropped_alert_fails_check () =
  let topo = W.build W.Virt_churn_watch in
  let vt = match topo with W.Virt vt -> vt | W.Legacy _ -> assert false in
  let store = W.store topo in
  let q = List.hd (W.watch_queries vt) in
  with_server store (fun server client ->
      let baseline = B.Oracle.rows_of_text (reply client q).Nepal.Server.qr_text in
      (match Client.watch client q with Ok _ -> () | Error e -> Alcotest.fail e);
      let rng = Nepal.Prng.create 17 in
      let base = Nepal.Server.with_write server Nepal.Graph_store.clock in
      for i = 0 to 119 do
        Nepal.Server.with_write server (fun _ -> W.churn_write vt ~rng ~base i);
        Thread.delay 0.005
      done;
      let alerts = alerts_of client ~quiet_s:1.0 in
      let fresh = B.Oracle.rows_of_text (reply client q).Nepal.Server.qr_text in
      Alcotest.(check bool) "writes moved the watch" true
        (List.exists (fun a -> a.B.Oracle.added <> [] || a.B.Oracle.removed <> []) alerts);
      Alcotest.(check bool) "all alerts: consistent" true
        (B.Oracle.check_watch ~baseline ~alerts ~fresh = Ok ());
      (* the last alert's changes are never undone by a later one *)
      let without_last = List.filteri (fun i _ -> i < List.length alerts - 1) alerts in
      Alcotest.(check bool) "last alert dropped: inconsistent" true
        (Result.is_error (B.Oracle.check_watch ~baseline ~alerts:without_last ~fresh));
      let flagged =
        List.mapi (fun i a -> if i = 0 then { a with B.Oracle.dropped = 1 } else a) alerts
      in
      Alcotest.(check bool) "a dropped counter fails the check" true
        (Result.is_error (B.Oracle.check_watch ~baseline ~alerts:flagged ~fresh)))

(* A write that raises ends the churn; the writes committed before it
   come back with the error, and the ones never committed fail the run. *)
let test_failed_write_fails_run () =
  let topo = W.build W.Virt_churn_watch in
  let vt = match topo with W.Virt vt -> vt | W.Legacy _ -> assert false in
  let store = W.store topo in
  with_server store (fun server client ->
      let rng = Nepal.Prng.create 17 in
      let base = Nepal.Server.with_write server Nepal.Graph_store.clock in
      let with_write f = Nepal.Server.with_write server (fun _ -> f ()) in
      let write i =
        if i = 3 then failwith "write refused" else W.churn_write vt ~rng ~base i
      in
      let result = B.Child.churn ~with_write ~write ~n:6 in
      let answer = Result.get_ok (Nepal.Wire_json.parse (B.Child.churn_answer result)) in
      let writes, error = B.Loadgen.writes_of_json answer in
      Alcotest.(check int) "writes before the failure logged" 3 (List.length writes);
      Alcotest.(check bool) "error reported" true (error <> None);
      let tally = B.Loadgen.new_tally () in
      B.Loadgen.account_writes tally ~requested:6 ~error writes;
      Alcotest.(check int) "missing writes failed" 3 tally.B.Loadgen.failed;
      Alcotest.(check bool) "run not correct" false (B.Loadgen.correct tally);
      let complete = B.Loadgen.new_tally () in
      B.Loadgen.account_writes complete ~requested:3 ~error:None writes;
      Alcotest.(check bool) "all writes committed: correct" true
        (B.Loadgen.correct complete);
      (* the write lock was released: the server still answers *)
      ignore (reply client (List.hd (sample_queries ()))))

let test_clip_intervals () =
  let until = "2017-03-02 00:00:00" in
  let clip = B.Oracle.clip_intervals ~until in
  Alcotest.(check string) "open end clipped"
    "P valid {[2017-01-01 00:00:00, 2017-03-02 00:00:00)}"
    (clip "P valid {[2017-01-01 00:00:00, )}");
  Alcotest.(check string) "later end clipped, later start dropped"
    "{[2017-01-01 00:00:00, 2017-02-01 00:00:00), [2017-02-05 00:00:00, 2017-03-02 00:00:00)}"
    (clip
       "{[2017-01-01 00:00:00, 2017-02-01 00:00:00), [2017-02-05 00:00:00, \
        2017-03-09 00:00:00), [2017-03-05 00:00:00, )}");
  Alcotest.(check string) "text without intervals unchanged" "1 row(s) of (P)"
    (clip "1 row(s) of (P)")

let () =
  Alcotest.run "wirebench"
    [
      ( "requests",
        [
          Alcotest.test_case "same seed, same request list" `Quick test_same_seed_same_list;
          Alcotest.test_case "stratified mix is exact" `Quick test_exact_mix;
          Alcotest.test_case "reverse sinks asked equally" `Quick test_reverse_sinks_equal;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "corrupted reply caught over the wire" `Quick
            test_corrupted_reply_caught;
          Alcotest.test_case "validity clipping" `Quick test_clip_intervals;
        ] );
      ( "timing",
        [
          Alcotest.test_case "timing runner answers byte-identically" `Quick
            test_timing_runner_identical;
        ] );
      ( "watches",
        [
          Alcotest.test_case "dropped alert fails the consistency check" `Quick
            test_dropped_alert_fails_check;
          Alcotest.test_case "failed write fails the run" `Quick
            test_failed_write_fails_run;
        ] );
    ]
