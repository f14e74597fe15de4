(* Measurement kernel: one monotonic clock, order statistics, the
   closed-loop and open-loop load generators, and the in-memory span log
   of traced runs. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

(* ---- order statistics ---- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

(* A growable float buffer; [create] takes the expected size so runs of
   equal length allocate equally. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create n = { data = Array.make (max n 16) 0.; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

(* ---- repeated timing ---- *)

(* Run [f] (which returns the number of operations it did) in batches of at
   least [batch_s] seconds until [budget_s] is spent (at least [min_batches]
   batches); the result is the median time per operation. A full major
   collection before each batch keeps the garbage of one batch out of the
   next. *)
let per_op_median ?(min_batches = 3) ~budget_s ~batch_s f =
  let samples = ref [] in
  let t_end = now_s () +. budget_s in
  let count = ref 0 in
  while !count < min_batches || now_s () < t_end do
    Gc.full_major ();
    let t0 = now_s () in
    let ops = ref 0 in
    while now_s () -. t0 < batch_s do
      ops := !ops + f ()
    done;
    let dt = now_s () -. t0 in
    samples := (dt /. float_of_int (max 1 !ops)) :: !samples;
    incr count
  done;
  median (Array.of_list !samples)

(* Like [per_op_median], for operations that time themselves: [f ()]
   returns the seconds its measured part took (set-up work it does outside
   that part is not counted). *)
let timed_median ?(min_batches = 3) ~budget_s ~batch_s f =
  let samples = ref [] in
  let t_end = now_s () +. budget_s in
  let count = ref 0 in
  while !count < min_batches || now_s () < t_end do
    Gc.full_major ();
    let t0 = now_s () in
    let total = ref 0. and ops = ref 0 in
    while now_s () -. t0 < batch_s do
      total := !total +. f ();
      incr ops
    done;
    samples := (!total /. float_of_int !ops) :: !samples;
    incr count
  done;
  median (Array.of_list !samples)

(* ---- load generators ---- *)

(* One closed-loop segment: [step ()] injects one batch, waits for it to
   finish and returns the number of external events it carried; the result
   is the events/s sustained over [segment_s] (long enough to hold several
   minor collections and major slices). *)
let closed_segment ~segment_s step =
  let t0 = now_s () in
  let n = ref 0 and t = ref t0 in
  while !t -. t0 < segment_s do
    n := !n + step ();
    t := now_s ()
  done;
  float_of_int !n /. (!t -. t0)

(* Closed loop alone, from a full major collection: the median segment
   rate. *)
let closed_loop ~duration_s ~segment_s step =
  Gc.full_major ();
  let rates = ref [] in
  let t_end = now_s () +. duration_s in
  while now_s () < t_end do
    rates := closed_segment ~segment_s step :: !rates
  done;
  median (Array.of_list !rates)

(* Seeded Poisson arrivals at a fixed mean [rate] (events/s), and how late
   the generator injected each event. *)
type arrivals = { rng : Random.State.t; rate : float; lag : Fbuf.t }

let arrivals rng rate = { rng; rate; lag = Fbuf.create 4096 }
let gap a = -.log (1. -. Random.State.float a.rng 1.0) /. a.rate

(* One open-loop segment of [segment_s]. The generator waits (spinning:
   the engine is idle and a sleep would add scheduler wake-up jitter) for
   the next arrival, injects it with [inject], and calls [finish] to
   process what it injected; each event is timed from its scheduled
   arrival to the end of that [finish], so a stall also charges the events
   queued behind it. With [~batch:true] every event already due is
   injected before one [finish] (a server draining its queue); with
   [~batch:false] events are processed one at a time (a GUI event loop).
   Returns the segment's latencies in us. *)
let open_segment a ~segment_s ~batch ~inject ~finish =
  let lat = Fbuf.create (int_of_float (a.rate *. segment_s *. 1.25) + 16) in
  let due = Fbuf.create 64 in
  let t0 = now_s () in
  let t_end = t0 +. segment_s in
  let next = ref (t0 +. gap a) in
  while !next < t_end do
    let now = ref (now_s ()) in
    while !now < !next do
      now := now_s ()
    done;
    due.Fbuf.len <- 0;
    let continue = ref true in
    while !continue do
      Fbuf.push due !next;
      Fbuf.push a.lag ((now_s () -. !next) *. 1e6);
      inject ();
      next := !next +. gap a;
      continue := batch && !next <= !now
    done;
    finish ();
    let t_done = now_s () in
    for i = 0 to due.Fbuf.len - 1 do
      Fbuf.push lat ((t_done -. due.Fbuf.data.(i)) *. 1e6)
    done
  done;
  Fbuf.contents lat

(* The median over segments of each segment's [q]-quantile: a transient
   disturbance of the host moves one segment, not the figure. *)
let segment_quantile segments q =
  median (Array.of_list (List.map (fun seg -> quantile seg q) segments))

(* Open loop alone, from a full major collection, in 1 s segments; only
   the lag is used (traced runs). *)
let open_loop ~rng ~rate ~duration_s ~batch ~inject ~finish =
  Gc.full_major ();
  let a = arrivals rng rate in
  let t_end = now_s () +. duration_s in
  while now_s () < t_end do
    ignore (open_segment a ~segment_s:1.0 ~batch ~inject ~finish)
  done;
  Fbuf.contents a.lag

type load = {
  rates : float array;  (* events/s per closed-loop segment *)
  latencies : float array list;  (* us per event, per open-loop segment *)
  open_events : int;
}

(* The measured load of a run: rounds of a closed-loop segment of
   [closed_s], an open-loop segment of [open_s] and one sample of
   [between ()] (another timed operation), for [duration_s]. Interleaving
   makes every figure sample the whole run, so a drift of the host's speed
   during the run weighs the same on each; each round starts from a full
   major collection, so no segment inherits the collector's debt from the
   one before. Returns the load and the [between] samples. *)
let mixed_load ~duration_s ~closed_s ~open_s ~step ~rng ~rate ~batch ~inject ~finish
    ~between =
  let a = arrivals rng rate in
  let rates = ref [] and latencies = ref [] and samples = ref [] in
  let t_end = now_s () +. duration_s in
  while now_s () < t_end do
    Gc.full_major ();
    rates := closed_segment ~segment_s:closed_s step :: !rates;
    latencies := open_segment a ~segment_s:open_s ~batch ~inject ~finish :: !latencies;
    samples := between () :: !samples
  done;
  ( {
      rates = Array.of_list !rates;
      latencies = !latencies;
      open_events = List.fold_left (fun n l -> n + Array.length l) 0 !latencies;
    },
    Array.of_list !samples )

(* ---- GC ---- *)

type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- spans (traced runs only) ----

   A span has a name, a start, an end and the span that caused it
   ([parent], -1 for a root). Spans are kept in preallocated arrays and
   written out when the run ends; a layer's self time is its span time
   minus the time of its child spans. Past [capacity] spans are no longer
   recorded (the run stops early instead: see [full]). *)
module Spans = struct
  type t = {
    names : (string, int) Hashtbl.t;
    mutable name_list : string list;
    name : int array;
    start : int array;
    stop : int array;
    parent : int array;
    mutable n : int;
  }

  let create capacity =
    {
      names = Hashtbl.create 32;
      name_list = [];
      name = Array.make capacity 0;
      start = Array.make capacity 0;
      stop = Array.make capacity 0;
      parent = Array.make capacity (-1);
      n = 0;
    }

  let intern t s =
    match Hashtbl.find_opt t.names s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names s i;
      t.name_list <- t.name_list @ [ s ];
      i

  let full t = t.n >= Array.length t.name - 16

  (* [open_ t name ~parent] starts a span and returns its index. *)
  let open_ t name ~parent =
    let i = t.n in
    if i < Array.length t.name then begin
      t.name.(i) <- name;
      t.parent.(i) <- parent;
      t.n <- i + 1;
      t.start.(i) <- now_ns ()
    end;
    i

  let close t i =
    if i < Array.length t.name then t.stop.(i) <- now_ns ()

  (* [span t name ~parent f] times [f ()] as one span. *)
  let span t name ~parent f =
    let i = open_ t name ~parent in
    let r = f () in
    close t i;
    r

  type agg = { count : int; total_ns : int; self_ns : int }

  (* Per-name totals: count, span time and self time. *)
  let aggregate t =
    let child = Array.make t.n 0 in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
    done;
    let k = Hashtbl.length t.names in
    let count = Array.make k 0 and total = Array.make k 0 in
    let self = Array.make k 0 in
    for i = 0 to t.n - 1 do
      let d = t.stop.(i) - t.start.(i) in
      let nm = t.name.(i) in
      count.(nm) <- count.(nm) + 1;
      total.(nm) <- total.(nm) + d;
      self.(nm) <- self.(nm) + (d - child.(i))
    done;
    List.mapi
      (fun i s -> (s, { count = count.(i); total_ns = total.(i); self_ns = self.(i) }))
      t.name_list

  let find aggs name =
    match List.assoc_opt name aggs with
    | Some a -> a
    | None -> { count = 0; total_ns = 0; self_ns = 0 }

  (* One line per span (index, name, start ns, end ns, parent index), for
     the first [limit] spans; the header gives the number recorded. *)
  let write ?(limit = 200_000) t path =
    let names = Array.of_list t.name_list in
    let oc = open_out path in
    Printf.fprintf oc "# %d spans recorded, first %d written\n" t.n (min t.n limit);
    output_string oc "id\tname\tstart_ns\tend_ns\tparent\n";
    for i = 0 to min t.n limit - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i names.(t.name.(i)) t.start.(i)
        t.stop.(i) t.parent.(i)
    done;
    close_out oc
end
