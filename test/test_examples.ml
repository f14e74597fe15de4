(* Integration tests: every shipped FElm example program parses, type
   checks, runs against its shipped trace with the expected output, compiles
   to well-formed JavaScript, and produces a signal-graph DOT. This is the
   pipeline a user of `felmc` exercises. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* dune runtest runs with cwd = _build/default/test; dune exec from the
   project root. Find the examples either way. *)
let dir =
  if Sys.file_exists "../examples/felm/mouse.felm" then "../examples/felm/"
  else "examples/felm/"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load name =
  let program = Felm.Program.of_source (read_file (dir ^ name ^ ".felm")) in
  let ty = Felm.Typecheck.check_program program in
  (program, ty)

let run ?backend name =
  let program, _ = load name in
  let events = Felm.Trace.parse (read_file (dir ^ name ^ ".trace")) in
  Felm.Trace.validate program events;
  Felm.Interp.run ?backend program ~trace:events

let shown outcome =
  List.map (fun (_, v) -> Felm.Value.show v) outcome.Felm.Interp.displays

let examples =
  [ "mouse"; "counter"; "relative"; "wordpairs"; "async_search"; "poly";
    "history"; "options" ]

let test_all_check () =
  List.iter
    (fun name ->
      match load name with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s.felm failed to check: %s" name (Printexc.to_string e))
    examples

let test_mouse () =
  Alcotest.(check (list string))
    "mouse positions"
    [ "(10, 0)"; "(10, 5)"; "(20, 5)"; "(20, 9)"; "(30, 9)" ]
    (shown (run "mouse"))

let test_counter () =
  Alcotest.(check (list string)) "counts" [ "1"; "2"; "3" ] (shown (run "counter"))

let test_relative () =
  Alcotest.(check (list string)) "percentages" [ "50"; "25"; "50" ]
    (shown (run "relative"))

let test_wordpairs () =
  Alcotest.(check (list string))
    "translations"
    [ "(hello, bonjour)"; "(world, monde)"; "(thanks, merci)" ]
    (shown (run "wordpairs"))

(* Sec. 5: the mouse stays live while the 2 s lookup runs behind [async]. *)
let check_async_search_responsive outcome =
  (* mouse updates land promptly despite the 2s lookup... *)
  let mouse_updates =
    List.filter
      (fun (t, v) ->
        match v with
        | Felm.Value.Vpair (Felm.Value.Vint _, Felm.Value.Vstring "0") -> t < 1.5
        | _ -> false)
      outcome.Felm.Interp.displays
  in
  check_int "three prompt mouse updates" 3 (List.length mouse_updates);
  (* ... and the result arrives at t >= 3 *)
  check_bool "slow result arrives" true
    (List.exists
       (fun (t, v) ->
         match v with
         | Felm.Value.Vpair (_, Felm.Value.Vstring "6") -> t >= 3.0
         | _ -> false)
       outcome.Felm.Interp.displays)

let test_async_search_is_responsive () =
  check_async_search_responsive (run "async_search")

(* The same under the compiled backend's threaded region dispatcher, the
   default of [felmc run]: the lookup's region blocks only its own thread,
   so the mouse regions keep displaying. *)
let test_async_search_responsive_compiled () =
  check_async_search_responsive
    (run ~backend:Elm_core.Runtime.Compiled "async_search")

let test_history () =
  Alcotest.(check (list string))
    "sliding window of mouse samples"
    [ "1 samples: [10]"; "2 samples: [20, 10]"; "3 samples: [30, 20, 10]";
      "3 samples: [40, 30, 20]" ]
    (shown (run "history"))

let test_poly () =
  Alcotest.(check (list string))
    "polymorphic program output"
    [ "mouse: (11, px)"; "mouse: (22, px)" ]
    (shown (run "poly"))

let test_all_compile_to_valid_js () =
  List.iter
    (fun name ->
      let program, _ = load name in
      let js = Felm_js.Emit.compile_program program in
      match Felm_js.Js_check.well_formed js with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s.felm emitted invalid JS: %s" name msg)
    examples

let test_all_emit_dot () =
  List.iter
    (fun name ->
      let program, _ = load name in
      let g, root = Felm.Denote.run_program program in
      let root_id = match root with Felm.Value.Vsignal id -> Some id | _ -> None in
      let dot = Felm.Sgraph.to_dot g ~root:root_id in
      check_bool (name ^ " dot nonempty") true (String.length dot > 50);
      check_bool (name ^ " has dispatcher") true
        (let needle = "dispatcher" in
         let n = String.length needle in
         let rec go i =
           i + n <= String.length dot && (String.sub dot i n = needle || go (i + 1))
         in
         go 0))
    examples

let test_sequential_mode_agrees_when_sync () =
  (* For programs without async, Sequential and Pipelined modes display the
     same values (the pipelining is unobservable in the output). *)
  List.iter
    (fun name ->
      let program, _ = load name in
      let events = Felm.Trace.parse (read_file (dir ^ name ^ ".trace")) in
      let a = Felm.Interp.run ~mode:Elm_core.Runtime.Pipelined program ~trace:events in
      let b = Felm.Interp.run ~mode:Elm_core.Runtime.Sequential program ~trace:events in
      check_bool (name ^ ": same outputs across modes") true
        (shown a = shown b))
    [ "mouse"; "counter"; "relative"; "wordpairs"; "poly" ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "examples"
    [
      ( "felm files",
        [
          tc "all type-check" `Quick test_all_check;
          tc "mouse" `Quick test_mouse;
          tc "counter" `Quick test_counter;
          tc "relative (Fig. 7)" `Quick test_relative;
          tc "wordpairs" `Quick test_wordpairs;
          tc "async_search responsive" `Quick test_async_search_is_responsive;
          tc "async_search responsive (compiled)" `Quick
            test_async_search_responsive_compiled;
          tc "poly (let-polymorphism)" `Quick test_poly;
          tc "history (lists)" `Quick test_history;
          tc "all compile to valid JS" `Quick test_all_compile_to_valid_js;
          tc "all emit DOT" `Quick test_all_emit_dot;
          tc "modes agree (sync programs)" `Quick test_sequential_mode_agrees_when_sync;
        ] );
    ]
