(* Entry point of the wire benchmark.

     wirebench run --workload W --seed N --seconds S --trace 0|1
       drive workload W against a freshly started server child and print
       the metrics, the last line being one JSON object
     wirebench serve --workload W --trace 0|1 [--spans FILE]
       the server child itself (see Child) *)

module B = Nepal_perfbench

let usage () =
  prerr_endline
    "usage: wirebench run --workload W --seed N --seconds S --trace 0|1 \
     [--out DIR]\n\
    \       wirebench serve --workload W --trace 0|1 [--spans FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let mode, rest =
    match args with _ :: m :: rest -> (m, rest) | _ -> usage ()
  in
  let rec opts acc = function
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] rest in
  let get k = List.assoc_opt k o in
  let kind =
    match Option.bind (get "workload") B.Workload.of_name with
    | Some k -> k
    | None ->
        prerr_endline
          ("wirebench: --workload must be one of "
          ^ String.concat ", " (List.map B.Workload.name B.Workload.kinds));
        exit 2
  in
  let trace = get "trace" = Some "1" in
  match mode with
  | "serve" -> B.Child.main ~kind ~trace ~spans_file:(get "spans")
  | "run" -> (
      let int k d = Option.value ~default:d (Option.bind (get k) int_of_string_opt) in
      let seed = int "seed" 1 in
      let seconds = float_of_int (int "seconds" 10) in
      let out_dir = Option.value ~default:".perfbench_out" (get "out") in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      (* a run must end within its budget even if the server wedges *)
      let budget = 170. in
      let started = Unix.gettimeofday () in
      ignore
        (Thread.create
           (fun () ->
             while Unix.gettimeofday () -. started < budget do
               Thread.delay 1.
             done;
             prerr_endline "wirebench: run exceeded its time budget";
             B.Loadgen.kill_all ();
             exit 3)
           ());
      match B.Loadgen.run ~kind ~seed ~seconds ~trace ~out_dir with
      | true -> B.Loadgen.kill_all (); exit 0
      | false -> B.Loadgen.kill_all (); exit 1
      | exception B.Loadgen.Abort msg ->
          prerr_endline ("wirebench: " ^ msg);
          B.Loadgen.kill_all ();
          exit 1)
  | _ -> usage ()
