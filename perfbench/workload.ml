(* Workload definitions: the fixed topologies, the query shapes of each
   traffic mix, and the stratified request lists drawn from them.

   The topology seed is fixed, so every run of a workload reads the
   same graph; the run's [--seed] only picks query instances and their
   order. Requests come in blocks: each block holds every shape of the
   mix exactly [per_block] times, in a seeded order, so any window of a
   few blocks has the exact family x form mix. *)

module Nepal = Core.Nepal
module Virt = Nepal.Virt_service
module Legacy = Nepal.Legacy
module Prng = Nepal.Prng
module Tp = Nepal.Time_point

type kind = Virt_interactive | Legacy_mining | Virt_churn_watch

let kinds = [ Virt_interactive; Legacy_mining; Virt_churn_watch ]

let name = function
  | Virt_interactive -> "virt_interactive"
  | Legacy_mining -> "legacy_mining"
  | Virt_churn_watch -> "virt_churn_watch"

let of_name s = List.find_opt (fun k -> name k = s) kinds

let virt_seed = 20180611
let legacy_seed = 20180612
let legacy_nodes = 20_000

type topo = Virt of Virt.t | Legacy of Legacy.t

let build kind =
  match kind with
  | Virt_interactive | Virt_churn_watch ->
      let t = Virt.generate ~seed:virt_seed () in
      Virt.simulate_history ~seed:(virt_seed + 1) t;
      Virt t
  | Legacy_mining ->
      let t = Legacy.generate ~seed:legacy_seed ~nodes:legacy_nodes Legacy.Flat in
      Legacy.simulate_history ~seed:(legacy_seed + 1) ~days:60 t;
      Legacy t

let store = function Virt t -> t.Virt.store | Legacy t -> t.Legacy.store

(* -- shapes ------------------------------------------------------------- *)

type shape = {
  family : string;
  form : string;  (* "snap", "at" or "range" *)
  per_block : int;  (* instances of this shape in every block *)
  pool : string array;  (* candidate query texts, fixed by the topology *)
}

let shape_name s = s.family ^ "/" ^ s.form

let at_prefix t q = Printf.sprintf "AT '%s' %s" (Tp.to_string t) q

let range_prefix a b q =
  Printf.sprintf "AT '%s' : '%s' %s" (Tp.to_string a) (Tp.to_string b) q

(* Draw [n] distinct values from [arr] with a topology-fixed rng. *)
let distinct rng n arr =
  let a = Array.copy arr in
  Prng.shuffle rng a;
  let seen = Hashtbl.create 64 in
  Array.to_list a
  |> List.filter (fun x ->
         if Hashtbl.mem seen x then false
         else begin
           Hashtbl.replace seen x ();
           true
         end)
  |> List.filteri (fun i _ -> i < n)
  |> Array.of_list

(* Past instants and windows of the 60-day history. Every one ends at or
   before the pre-write clock, so a read's answer cannot change under
   the churn workload's writes. *)
let instants (t : Virt.t) = List.map (Tp.add_days t.Virt.born) [ 12; 27; 41; 55 ]

let windows (t : Virt.t) =
  let clock = Nepal.Graph_store.clock t.Virt.store in
  [
    (Tp.add_days t.Virt.born 5, Tp.add_days t.Virt.born 35);
    (Tp.add_days t.Virt.born 30, clock);
  ]

let in_forms forms base =
  List.concat_map (fun q -> List.map (fun f -> f q) forms) base

let virt_pools (t : Virt.t) =
  let rng = Prng.create (virt_seed + 7) in
  let vnfs = t.Virt.vnf_ids in
  let servers = distinct rng 24 t.Virt.server_ids in
  let pairs n =
    Array.init n (fun _ ->
        (Prng.choose rng t.Virt.server_ids, Prng.choose rng t.Virt.server_ids))
  in
  let hh4 = pairs 24 and hh6 = pairs 12 in
  let td = Array.to_list (Array.map (fun id -> Virt.q_top_down ~vnf_id:id) vnfs) in
  let bu =
    Array.to_list (Array.map (fun id -> Virt.q_bottom_up ~server_id:id) servers)
  in
  let hh hops ps =
    Array.to_list (Array.map (fun (a, b) -> Virt.q_host_host ~hops ~a ~b) ps)
  in
  let at = List.map at_prefix (instants t) in
  let range = List.map (fun (a, b) -> range_prefix a b) (windows t) in
  (td, bu, hh 4 hh4, hh 6 hh6, at, range)

let shape ?(per_block = 1) family form pool =
  { family; form; per_block; pool = Array.of_list pool }

let virt_interactive_shapes t =
  let td, bu, hh4, hh6, at, range = virt_pools t in
  [
    shape "top_down" "snap" td;
    shape "top_down" "at" (in_forms at td);
    shape "top_down" "range" (in_forms range td);
    shape "bottom_up" "snap" bu;
    shape "bottom_up" "at" (in_forms at bu);
    shape "bottom_up" "range" (in_forms range bu);
    shape "host_host4" "snap" hh4;
    shape "host_host4" "at" (in_forms at hh4);
    shape "host_host4" "range" (in_forms range hh4);
    (* Host-Host(6) has no range form: it cannot use the bidirectional
       plan there. *)
    shape "host_host6" "snap" hh6;
    shape "host_host6" "at" (in_forms at hh6);
  ]

let churn_shapes t =
  let td, bu, hh4, _, at, range = virt_pools t in
  [
    shape "top_down" "range" (in_forms range td);
    shape "bottom_up" "range" (in_forms range bu);
    shape "host_host4" "at" (in_forms at hh4);
  ]

(* Legacy blocks ask every instance of every pool once, so each run asks
   every reverse-path sink (and every other instance) equally often; the
   seed only orders them. The pools keep the block's median read inside
   the top-down family rather than on the edge between two families. *)
let legacy_shapes (t : Legacy.t) =
  let rng = Prng.create (legacy_seed + 7) in
  let clock = Nepal.Graph_store.clock t.Legacy.store in
  let window = (Tp.add_days clock (-45), clock) in
  let sources = distinct rng 8 t.Legacy.service_source_ids in
  let sinks = distinct rng 6 t.Legacy.service_sink_ids in
  let tops = distinct rng 16 t.Legacy.top_ids in
  let ends = distinct rng 16 t.Legacy.chain_end_ids in
  let qs f arr = Array.to_list (Array.map f arr) in
  let service = qs (fun src -> Legacy.q_service_path t ~src) sources in
  let whole family form pool = shape ~per_block:(List.length pool) family form pool in
  [
    whole "service" "snap" service;
    whole "service" "range"
      (List.map (fun q -> range_prefix (fst window) (snd window) q) service);
    whole "reverse" "snap" (qs (fun sink -> Legacy.q_reverse_path t ~sink) sinks);
    whole "top_down" "snap" (qs (fun src -> Legacy.q_top_down t ~src) tops);
    whole "bottom_up" "snap" (qs (fun dst -> Legacy.q_bottom_up t ~dst) ends);
  ]

let shapes kind topo =
  match (kind, topo) with
  | Virt_interactive, Virt t -> virt_interactive_shapes t
  | Virt_churn_watch, Virt t -> churn_shapes t
  | Legacy_mining, Legacy t -> legacy_shapes t
  | _ -> invalid_arg "Workload.shapes: topology does not match the workload"

(* Every query text any request of the workload can carry. *)
let distinct_queries shapes =
  List.concat_map (fun s -> Array.to_list s.pool) shapes
  |> List.sort_uniq String.compare

(* -- stratified request lists ------------------------------------------ *)

type request = { shape : int;  (* index into the shape list *) q : string }

type plan = {
  shapes : shape array;
  perms : string array array;  (* per shape: the seed's instance order *)
  seed : int;
}

let plan ~seed shapes =
  let shapes = Array.of_list shapes in
  let perms =
    Array.mapi
      (fun i s ->
        let p = Array.copy s.pool in
        Prng.shuffle (Prng.create ((seed * 7919) + (i * 104729) + 1)) p;
        p)
      shapes
  in
  { shapes; perms; seed }

let block_size p = Array.fold_left (fun n s -> n + s.per_block) 0 p.shapes

(* Block [b]: shape [i] contributes the next [per_block] instances of its
   seeded cycle, and the block's order is a seeded shuffle. *)
let block p b =
  let reqs =
    Array.to_list p.shapes
    |> List.mapi (fun i s ->
           let perm = p.perms.(i) in
           List.init s.per_block (fun j ->
               let k = ((b * s.per_block) + j) mod Array.length perm in
               { shape = i; q = perm.(k) }))
    |> List.concat |> Array.of_list
  in
  Prng.shuffle (Prng.create ((p.seed * 31337) + (b * 613) + 17)) reqs;
  reqs

(* -- standing watches and churn (virt_churn_watch) --------------------- *)

(* Seven standing top-down watches over the current graph, each over a
   slice of the VNFs by id, together covering all of them: every VM
   migration or scale-out moves some watch's result set. *)
let watches = 7

let watch_queries (t : Virt.t) =
  let ids = Array.copy t.Virt.vnf_ids in
  Array.sort compare ids;
  let n = Array.length ids in
  List.init watches (fun w ->
      let lo = ids.(w * n / watches) and hi = ids.((((w + 1) * n) / watches) - 1) in
      Printf.sprintf
        "Retrieve P From PATHS P Where P MATCHES VNF(id>=%d, id<=%d)->[Vertical()]{1,6}->Server()"
        lo hi)

(* Open-loop write schedule: write [i] is due [i / rate] seconds after
   the schedule starts and commits at transaction time [base + i+1
   minutes]. *)
let write_rate_hz = 15.

let churn_write (t : Virt.t) ~rng ~base i =
  let at = Tp.add_seconds base (60. *. float_of_int (i + 1)) in
  Virt.churn_step ~rng ~at ~scale_tag:(200_000 + i) t
