(* The programs the workloads serve, the seeded event streams fed to them,
   and for each a hand-written closure chain doing the same arithmetic as
   the cone an event wakes (the "floor" the engine's overhead is measured
   against). Only generated inputs reach the engine. *)

module Signal = Elm_core.Signal

(* ------------------------------------------------------------------ *)
(* Sparse chains: [chains] inputs, each feeding an unfused depth-[depth]
   chain of increments, joined by one [combine] root. An event on input
   [i] wakes chain [i] and the root: 1/[chains] of the plan. *)

let sparse_chains = 8
let sparse_depth = 32

let sparse () =
  let inputs =
    Array.init sparse_chains (fun i ->
        Signal.input ~name:(Printf.sprintf "in%d" i) 0)
  in
  let rec chain n s =
    if n = 0 then s else chain (n - 1) (Signal.lift (fun x -> x + 1) s)
  in
  (inputs, Signal.combine (Array.to_list (Array.map (chain sparse_depth) inputs)))

(* The value every root must hold once the last value injected on input
   [i] was [last i]. *)
let sparse_expected last = List.init sparse_chains (fun i -> last i + sparse_depth)

type sparse_floor = {
  sf_links : (int -> int) array;
  sf_chain : int array;  (* session * chains + input -> chain output *)
  sf_root : int list array;
}

let sparse_floor sessions =
  {
    sf_links = Array.init sparse_depth (fun _ -> Sys.opaque_identity (fun x -> x + 1));
    sf_chain = Array.make (sessions * sparse_chains) sparse_depth;
    sf_root = Array.make sessions [];
  }

let sparse_floor_event f ~session ~input v =
  let x = ref v in
  for d = 0 to sparse_depth - 1 do
    x := f.sf_links.(d) !x
  done;
  let base = session * sparse_chains in
  f.sf_chain.(base + input) <- !x;
  f.sf_root.(session) <- List.init sparse_chains (fun j -> f.sf_chain.(base + j))

(* ------------------------------------------------------------------ *)
(* Fan-out: one input feeding [fan_width] async branches, each a
   CPU-bound depth-[fan_depth] chain behind a second async, joined by one
   sum (the shape of bench B19). Every external event makes one wave of
   [fan_width] data-independent heavy region groups. *)

let fan_width = 8
let fan_depth = 12
let fan_spin = 2000

let spin k x =
  let acc = ref (x + k) in
  for i = 1 to fan_spin do
    acc := ((!acc * 31) + i) land 0x3fffffff
  done;
  !acc

let fanout () =
  let first = Signal.input ~name:"src" 0 in
  let branch k =
    let rec go d s =
      if d = 0 then s
      else go (d - 1) (Signal.lift ~name:(Printf.sprintf "b%d.%d" k d) (spin k) s)
    in
    Signal.async (go fan_depth (Signal.async first))
  in
  (first, Signal.lift_list ~name:"join" (List.fold_left ( + ) 0) (List.init fan_width branch))

(* The floor: the branch chains, then the join recomputed once per branch
   re-entry. *)
let fan_floor_event branches v =
  for k = 0 to fan_width - 1 do
    let x = ref v in
    for _ = 1 to fan_depth do
      x := spin k !x
    done;
    branches.(k) <- !x
  done;
  let total = ref 0 in
  for _ = 1 to fan_width do
    total := Array.fold_left ( + ) 0 branches
  done;
  !total
