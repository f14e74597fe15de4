(* Live graph upgrade: diff two compiled plans and remap running arenas.

   Node ids are minted fresh per build (Signal.fresh_id), so a rebuilt
   program shares no ids with the graph it replaces. What survives a
   rebuild is structure: Compile stamps every slot with a structural key
   (kind + name + dependency keys, occurrence-disambiguated), identical
   across builds of the same program text. [diff] matches slots of the old
   and new plan on those keys; everything matched keeps its live value and
   stamp (optionally through a user migration), everything else is a
   subgraph attach (seeded from the new plan's defaults) or detach
   (released with the old arena).

   The patch is pure data — computed once per upgrade, applied to every
   live arena by [remap]. Function hot-swap needs no bookkeeping at all:
   ops live in the plan, not the arena, so a matched slot whose lift
   function changed simply runs the new plan's op against the carried
   value from the next event on. The serve layer (Session.upgrade /
   Dispatcher.upgrade_all) owns the other half of the seam: queue and
   delay-heap remapping, which is where the planted upgrade mutations
   ([mutation] below) hook in via [remap]'s flags. *)

type mutation =
  | Stale_slot_map of int
  | Skip_migration of int
  | Leak_seam_mailbox of int

type migration = {
  m_name : string;
  m_fn : Obj.t -> Obj.t;
}

let migrate ~name f = { m_name = name; m_fn = (fun o -> Obj.repr (f (Obj.obj o))) }
let migration_name m = m.m_name

type patch = {
  up_old : Compile.plan;
  up_new : Compile.plan;
  up_slot_map : int array;  (* new slot -> old slot, -1 = attached *)
  up_old_to_new : int array;  (* old slot -> new slot, -1 = detached *)
  up_state_map : int array;  (* new state slot -> old state slot, -1 *)
  up_node_map : (int, int) Hashtbl.t;  (* old node id -> new node id *)
  up_node_map_rev : (int, int) Hashtbl.t;  (* new node id -> old node id *)
  up_added : int list;  (* new slots with no old counterpart, ascending *)
  up_dropped : int list;  (* old slots with no new counterpart, ascending *)
  up_attached_regions : int list;  (* new regions made only of added slots *)
  up_detached_regions : int list;  (* old regions made only of dropped slots *)
  up_migrations : (Obj.t -> Obj.t) option array;  (* per new slot *)
  up_migration_names : string list;
}

let old_plan p = p.up_old
let new_plan p = p.up_new
let slot_map p = p.up_slot_map
let added_slots p = p.up_added
let dropped_slots p = p.up_dropped
let attached_regions p = p.up_attached_regions
let detached_regions p = p.up_detached_regions
let node_of_old p id = Hashtbl.find_opt p.up_node_map id
let node_of_new p id = Hashtbl.find_opt p.up_node_map_rev id

let new_slot_of_old p sl =
  let v = p.up_old_to_new.(sl) in
  if v < 0 then None else Some v

let is_identity p =
  p.up_added = [] && p.up_dropped = [] && p.up_migration_names = []

let diff ?(migrate = []) old_pl new_pl =
  let old_keys = Compile.slot_keys old_pl in
  let new_keys = Compile.slot_keys new_pl in
  let old_ids = Compile.slot_ids old_pl in
  let new_ids = Compile.slot_ids new_pl in
  let n_old = Compile.node_count old_pl in
  let n_new = Compile.node_count new_pl in
  (* Keys are unique within a plan (occurrence-suffixed), so this table is
     a bijection between the matched slot sets. *)
  let by_key = Hashtbl.create n_old in
  Array.iteri (fun sl k -> Hashtbl.replace by_key k sl) old_keys;
  let slot_map =
    Array.init n_new (fun i ->
        match Hashtbl.find_opt by_key new_keys.(i) with
        | Some j -> j
        | None -> -1)
  in
  let old_to_new = Array.make n_old (-1) in
  let node_map = Hashtbl.create n_new in
  let node_map_rev = Hashtbl.create n_new in
  Array.iteri
    (fun i j ->
      if j >= 0 then begin
        old_to_new.(j) <- i;
        Hashtbl.replace node_map old_ids.(j) new_ids.(i);
        Hashtbl.replace node_map_rev new_ids.(i) old_ids.(j)
      end)
    slot_map;
  let added = ref [] and dropped = ref [] in
  Array.iteri (fun i j -> if j < 0 then added := i :: !added) slot_map;
  Array.iteri (fun j i -> if i < 0 then dropped := j :: !dropped) old_to_new;
  (* State slots follow their owning node: a matched owner carries its
     foldp restart flag / keep_when gate across; an unmatched one
     re-initialises from the new plan. *)
  let old_state_of_node = Hashtbl.create 8 in
  for k = 0 to Compile.state_count old_pl - 1 do
    Hashtbl.replace old_state_of_node (Compile.state_node old_pl k) k
  done;
  let state_map =
    Array.init (Compile.state_count new_pl) (fun k ->
        let owner = Compile.state_node new_pl k in
        match Hashtbl.find_opt node_map_rev owner with
        | None -> -1
        | Some old_owner -> (
          match Hashtbl.find_opt old_state_of_node old_owner with
          | Some ok -> ok
          | None -> -1))
  in
  (* Region granularity: a region every one of whose members is unmatched
     is a whole attached (new plan) or detached (old plan) subgraph — the
     units the serve layer reports and the detach oracle inspects. *)
  let whole_region pl mapped keep =
    List.filter_map
      (fun rg ->
        let all_unmatched =
          List.for_all
            (fun id ->
              match Compile.slot_of pl id with
              | Some sl -> mapped.(sl) < 0
              | None -> false)
            rg.Compile.rg_member_ids
        in
        if all_unmatched && keep rg then Some rg.Compile.rg_index else None)
      (Compile.regions pl)
  in
  let attached = whole_region new_pl slot_map (fun _ -> true) in
  let detached = whole_region old_pl old_to_new (fun _ -> true) in
  (* User migrations, keyed by node name against the *new* plan: the slot
     must exist there and must be matched (there is no old value to
     migrate into an attached slot — seed those via the program's own
     initial value instead). *)
  let migrations = Array.make n_new None in
  let new_names = Compile.slot_names new_pl in
  List.iter
    (fun m ->
      let hit = ref false in
      Array.iteri
        (fun i name ->
          if name = m.m_name then begin
            if slot_map.(i) < 0 then
              invalid_arg
                (Printf.sprintf
                   "Upgrade.diff: migration %S targets an attached slot (no \
                    old value to migrate)"
                   m.m_name);
            migrations.(i) <- Some m.m_fn;
            hit := true
          end)
        new_names;
      if not !hit then
        invalid_arg
          (Printf.sprintf "Upgrade.diff: migration %S matches no slot of the \
                           new plan"
             m.m_name))
    migrate;
  {
    up_old = old_pl;
    up_new = new_pl;
    up_slot_map = slot_map;
    up_old_to_new = old_to_new;
    up_state_map = state_map;
    up_node_map = node_map;
    up_node_map_rev = node_map_rev;
    up_added = List.rev !added;
    up_dropped = List.rev !dropped;
    up_attached_regions = attached;
    up_detached_regions = detached;
    up_migrations = migrations;
    up_migration_names = List.map (fun m -> m.m_name) migrate;
  }

(* Seed-then-fill, as Compile's obj_array: never build an Obj.t array by
   [Array.init] over values that might start with a float (a flat float
   array would crash on the first non-float store). *)
let obj_array n fill =
  let a = Array.make n (Obj.repr 0) in
  for i = 0 to n - 1 do
    a.(i) <- fill i
  done;
  a

(* The two planted upgrade bugs that live at arena granularity.
   [stale_map] rotates the matched-slot assignment by one — not an
   identity permutation, so any program with >= 2 matched stateful or
   observable slots detects it; [skip_migration] drops the user migration
   and copies raw. The third ([Leak_seam_mailbox]) is a
   dispatcher-side bookkeeping bug and hooks into Dispatcher.upgrade_all
   instead. *)
let remap ?(stale_map = false) ?(skip_migration = false) p
    (ar : Compile.arena) =
  let np = p.up_new in
  let n = Compile.node_count np in
  let map =
    if not stale_map then p.up_slot_map
    else begin
      let matched = ref [] in
      Array.iteri
        (fun i j -> if j >= 0 then matched := i :: !matched)
        p.up_slot_map;
      let ms = Array.of_list (List.rev !matched) in
      let k = Array.length ms in
      let m = Array.copy p.up_slot_map in
      if k > 1 then
        for x = 0 to k - 1 do
          m.(ms.(x)) <- p.up_slot_map.(ms.((x + 1) mod k))
        done;
      m
    end
  in
  let defaults = Compile.defaults np in
  let values =
    obj_array n (fun i ->
        let j = map.(i) in
        if j < 0 then defaults.(i)
        else
          let v = ar.Compile.ar_values.(j) in
          match p.up_migrations.(i) with
          | Some f when not skip_migration -> f v
          | _ -> v)
  in
  let stamps =
    Array.init n (fun i ->
        let j = map.(i) in
        if j < 0 then 0 else ar.Compile.ar_stamps.(j))
  in
  let state =
    obj_array (Compile.state_count np) (fun k ->
        let jk = p.up_state_map.(k) in
        if jk >= 0 && Compile.state_copyable np k then
          ar.Compile.ar_state.(jk)
        else Compile.state_initial np k)
  in
  { Compile.ar_values = values; ar_stamps = stamps; ar_state = state }

let pp ppf p =
  Format.fprintf ppf
    "@[<v>upgrade: %d slots -> %d slots@,\
     matched=%d added=%d dropped=%d migrations=%d@,\
     attached regions: %s@,detached regions: %s@]"
    (Compile.node_count p.up_old)
    (Compile.node_count p.up_new)
    (Array.fold_left (fun a j -> if j >= 0 then a + 1 else a) 0 p.up_slot_map)
    (List.length p.up_added)
    (List.length p.up_dropped)
    (List.length p.up_migration_names)
    (String.concat "," (List.map string_of_int p.up_attached_regions))
    (String.concat "," (List.map string_of_int p.up_detached_regions))
