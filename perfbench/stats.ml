(* Small order statistics shared by the load generator and its tests. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile: the [ceil (q n)]-th smallest value (1-based).
   Returns the value and the rank used. *)
let nearest_rank q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    (a.(rank - 1), rank)

let quantile q xs = fst (nearest_rank q xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
