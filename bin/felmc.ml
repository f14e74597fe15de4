(* felmc: the FElm compiler and interpreter command-line tool.

   Subcommands:
     check    parse, resolve and type-check a program
     run      interpret a program against an event trace (virtual time)
     compile  emit JavaScript/HTML (the paper's Section 5 compiler)
     graph    emit the signal graph as Graphviz DOT (Figs. 7-8)
     sessions serve N isolated sessions of one program over a shared
              compiled plan and replay a trace into each *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_output out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let or_die f =
  try f () with
  | Felm.Lexer.Lex_error (msg, loc) ->
    Printf.eprintf "Lexical error at %s: %s\n"
      (Format.asprintf "%a" Felm.Ast.pp_loc loc)
      msg;
    exit 1
  | Felm.Parser.Parse_error (msg, loc) ->
    Printf.eprintf "Syntax error at %s: %s\n"
      (Format.asprintf "%a" Felm.Ast.pp_loc loc)
      msg;
    exit 1
  | Felm.Program.Error (msg, loc) ->
    Printf.eprintf "Error at %s: %s\n"
      (Format.asprintf "%a" Felm.Ast.pp_loc loc)
      msg;
    exit 1
  | Felm.Typecheck.Type_error (msg, loc) ->
    Printf.eprintf "Type error at %s: %s\n"
      (Format.asprintf "%a" Felm.Ast.pp_loc loc)
      msg;
    exit 1
  | Felm.Trace.Trace_error (msg, line) ->
    Printf.eprintf "Trace error on line %d: %s\n" line msg;
    exit 1
  | Invalid_argument msg ->
    (* a refused option combination, e.g. --domains with --backend=pipelined *)
    Printf.eprintf "Error: %s\n" msg;
    exit 2

let load_checked path =
  let program = Felm.Program.of_source (read_file path) in
  let ty = Felm.Typecheck.check_program program in
  (program, ty)

(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"FElm source file.")

let check_cmd =
  let run file =
    or_die (fun () ->
        let _, ty = load_checked file in
        Printf.printf "%s : %s\n" (Filename.basename file) (Felm.Ty.to_string ty))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse, resolve and type-check a FElm program.")
    Term.(const run $ file_arg)

let run_cmd =
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay"; "t" ] ~docv:"EVENTS" ~doc:"Event trace file to replay.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT"
          ~doc:
            "Record the run with the signal-graph tracer and write a Chrome \
             trace-event JSON file to $(docv) (open it in chrome://tracing \
             or https://ui.perfetto.dev). Also prints the latency/queue \
             summary.")
  in
  let seq_arg =
    Arg.(
      value & flag
      & info [ "sequential" ]
          ~doc:"Use the non-pipelined baseline scheduler instead of the \
                paper's pipelined semantics.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print runtime counters at exit.")
  in
  let no_fuse_arg =
    Arg.(
      value & flag
      & info [ "no-fuse" ]
          ~doc:
            "Instantiate the signal graph exactly as written, skipping the \
             build-time fusion of stateless lift chains (one thread and one \
             channel per source node, as in the paper's Fig. 10).")
  in
  let backend_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "pipelined" -> Ok (Elm_core.Runtime.Pipelined : Elm_core.Runtime.backend)
      | "compiled" -> Ok Elm_core.Runtime.Compiled
      | s ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown backend %S (expected pipelined or compiled)" s))
    in
    let print ppf (b : Elm_core.Runtime.backend) =
      Format.pp_print_string ppf
        (match b with Pipelined -> "pipelined" | Compiled -> "compiled")
    in
    Arg.conv (parse, print)
  in
  let backend_arg =
    Arg.(
      value
      & opt backend_conv Elm_core.Runtime.Compiled
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Runtime execution strategy: $(b,compiled) (default — \
             synchronous regions between async/delay boundaries are \
             compiled to straight-line step functions, one thread per \
             region) or $(b,pipelined) (the paper's Fig. 10 translation \
             verbatim, one thread per node and one channel per edge). Both \
             display the same values at the same virtual times; compiled \
             pays an order of magnitude fewer context switches and \
             messages per event.")
  in
  let policy_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "propagate" -> Ok Elm_core.Runtime.Propagate
      | "isolate" -> Ok Elm_core.Runtime.Isolate
      | s -> (
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "restart" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some n when n >= 0 -> Ok (Elm_core.Runtime.Restart n)
          | Some _ | None ->
            Error (`Msg (Printf.sprintf "invalid restart budget %S" rest)))
        | _ ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown policy %S (expected propagate, isolate or \
                   restart:N)"
                  s)))
    in
    let print ppf = function
      | Elm_core.Runtime.Propagate -> Format.pp_print_string ppf "propagate"
      | Elm_core.Runtime.Isolate -> Format.pp_print_string ppf "isolate"
      | Elm_core.Runtime.Restart n -> Format.fprintf ppf "restart:%d" n
    in
    Arg.conv (parse, print)
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Elm_core.Runtime.Propagate
      & info [ "on-node-error" ] ~docv:"POLICY"
          ~doc:
            "Node supervision policy: $(b,propagate) (default — an exception \
             in a lifted function tears the session down), $(b,isolate) \
             (catch it, re-emit the node's last-good value as No_change and \
             keep the session alive) or $(b,restart:N) (isolate plus up to N \
             re-initialisations of the node's state — fresh foldp \
             accumulator, fresh fused step — before degrading to isolate). \
             Failures are counted in --stats and recorded by --trace.")
  in
  let capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Bound every node wakeup and source value mailbox at $(docv) \
             messages (default: unbounded). Senders block until the reader \
             drains — backpressure instead of unbounded buffering.")
  in
  let sched_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sched-seed" ] ~docv:"SEED"
          ~doc:
            "Run under the seeded-random scheduler policy instead of FIFO: \
             at every context switch a uniformly random runnable thread is \
             chosen from a PRNG seeded with $(docv). Deterministic per seed; \
             this replays schedules printed by the exploration harness \
             (lib/check). Virtual time and, for async-free programs, the \
             displayed trace are schedule-independent.")
  in
  let sched_pct_conv =
    let parse s =
      match String.split_on_char ':' (String.trim s) with
      | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some seed, Some depth when depth >= 0 ->
          Ok (Cml.Scheduler.Pct { seed; depth })
        | _ -> Error (`Msg (Printf.sprintf "invalid PCT spec %S" s)))
      | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid PCT spec %S (expected SEED:DEPTH)" s))
    in
    let print ppf = function
      | Cml.Scheduler.Pct { seed; depth } ->
        Format.fprintf ppf "%d:%d" seed depth
      | _ -> Format.pp_print_string ppf "?"
    in
    Arg.conv (parse, print)
  in
  let sched_pct_arg =
    Arg.(
      value
      & opt (some sched_pct_conv) None
      & info [ "sched-pct" ] ~docv:"SEED:DEPTH"
          ~doc:
            "Run under the PCT (probabilistic concurrency testing) scheduler \
             policy: random thread priorities with DEPTH seeded priority \
             change points. Overrides $(b,--sched-seed).")
  in
  let run_domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"K"
          ~doc:
            "Intra-session parallel region dispatch (compiled backend \
             only): batch queued events into waves and run each wave's \
             data-independent region groups on a pool of $(docv) OCaml \
             domains, respecting the plan's region dependency DAG. \
             Displayed values and virtual times are identical for every \
             $(docv) to those of $(b,--domains=1), which runs the wave \
             coordinator without a pool (the sequential wave baseline). \
             They can differ from the default threaded dispatcher's: a \
             wave's displays are stamped at its flush, so a costly async \
             branch delays the displays that share its wave. Combining it \
             with $(b,--backend=pipelined) or $(b,--queue-capacity) is an \
             error.")
  in
  let run file replay trace_out sequential print_stats no_fuse backend policy
      capacity sched_seed sched_pct domains =
    or_die (fun () ->
        let program, ty = load_checked file in
        let events =
          match replay with
          | None -> []
          | Some path ->
            let evs = Felm.Trace.parse (read_file path) in
            Felm.Trace.validate program evs;
            evs
        in
        let mode =
          if sequential then Elm_core.Runtime.Sequential
          else Elm_core.Runtime.Pipelined
        in
        let tracer =
          Option.map (fun _ -> Elm_core.Trace.create ()) trace_out
        in
        let sched_policy =
          match (sched_pct, sched_seed) with
          | Some pct, _ -> pct
          | None, Some seed -> Cml.Scheduler.Seeded_random seed
          | None, None -> Cml.Scheduler.Fifo
        in
        (match domains with
        | Some k when k < 1 ->
          raise (Invalid_argument "--domains must be >= 1")
        | _ -> ());
        let outcome =
          Felm.Interp.run ~policy:sched_policy ~backend ~mode ?tracer
            ~fuse:(not no_fuse) ~on_node_error:policy
            ?queue_capacity:capacity ?domains program ~trace:events
        in
        Printf.printf "-- %s : %s\n" (Filename.basename file) (Felm.Ty.to_string ty);
        if outcome.Felm.Interp.displays = [] then
          Printf.printf "value: %s\n" (Felm.Value.show outcome.Felm.Interp.final)
        else
          List.iter
            (fun (t, v) -> Printf.printf "[%8.3f] %s\n" t (Felm.Value.show v))
            outcome.Felm.Interp.displays;
        if outcome.Felm.Interp.skipped_events > 0 then
          Printf.printf "(%d trace events targeted unused inputs)\n"
            outcome.Felm.Interp.skipped_events;
        (match outcome.Felm.Interp.stats with
        | Some stats when print_stats ->
          Format.printf "stats: %a@." Elm_core.Stats.pp stats
        | Some _ | None -> ());
        match trace_out, tracer with
        | Some path, Some tr ->
          write_output (Some path)
            (Json.pretty (Elm_core.Trace.to_chrome_json tr) ^ "\n");
          Printf.printf "trace: wrote %s\n" path;
          Format.printf "%a@." Elm_core.Trace.pp_summary
            (Elm_core.Trace.summary tr)
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a FElm program against an event trace.")
    Term.(
      const run $ file_arg $ replay_arg $ trace_out_arg $ seq_arg $ stats_arg
      $ no_fuse_arg $ backend_arg $ policy_arg $ capacity_arg $ sched_seed_arg
      $ sched_pct_arg $ run_domains_arg)

let compile_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file (default: stdout).")
  in
  let js_only_arg =
    Arg.(
      value & flag
      & info [ "js" ] ~doc:"Emit plain JavaScript for embedding, not an HTML page.")
  in
  let run file out js_only =
    or_die (fun () ->
        let program, _ = load_checked file in
        let text =
          if js_only then Felm_js.Emit.compile_program program
          else Felm_js.Html.page ~title:(Filename.basename file) program
        in
        write_output out text)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a FElm program to JavaScript/HTML (Section 5).")
    Term.(const run $ file_arg $ out_arg $ js_only_arg)

let graph_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file (default: stdout).")
  in
  let fused_arg =
    Arg.(
      value & flag
      & info [ "fused" ]
          ~doc:
            "Render the graph the runtime actually instantiates: after the \
             build-time fusion pass, with each fused lift chain drawn as a \
             single composite box.")
  in
  let compiled_arg =
    Arg.(
      value & flag
      & info [ "compiled" ]
          ~doc:
            "Render the compiled backend's region partition: the fused \
             graph with each maximal synchronous region (delimited by \
             async/delay boundaries) drawn as a dashed cluster — what \
             $(b,run --backend=compiled) executes with one thread per \
             region. Implies $(b,--fused).")
  in
  let run file out fused compiled =
    or_die (fun () ->
        let program, _ = load_checked file in
        let g, root = Felm.Denote.run_program program in
        if fused || compiled then (
          match root with
          | Felm.Value.Vsignal root_id ->
            Felm.Sgraph.freeze g;
            let table = Felm.Interp.build_signals program g in
            let root_signal = Hashtbl.find table root_id in
            let fused_root = Elm_core.Fuse.fuse root_signal in
            if compiled then
              write_output out
                (Elm_core.Compile.to_dot
                   ~label:(Filename.basename file ^ " (compiled regions)")
                   fused_root)
            else
              write_output out
                (Elm_core.Signal.to_dot
                   ~label:(Filename.basename file ^ " (fused)")
                   fused_root)
          | _ ->
            Printf.eprintf
              "graph %s: %s is not a reactive program (main is a plain \
               value)\n"
              (if compiled then "--compiled" else "--fused")
              (Filename.basename file);
            exit 1)
        else
          let root_id =
            match root with Felm.Value.Vsignal id -> Some id | _ -> None
          in
          write_output out
            (Felm.Sgraph.to_dot ~label:(Filename.basename file) g ~root:root_id))
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Emit the program's signal graph as Graphviz DOT (Figs. 7-8).")
    Term.(const run $ file_arg $ out_arg $ fused_arg $ compiled_arg)

let sessions_cmd =
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay"; "t" ] ~docv:"EVENTS"
          ~doc:"Event trace file to replay into every session.")
  in
  let count_arg =
    Arg.(
      value & opt int 3
      & info [ "n"; "sessions" ] ~docv:"N"
          ~doc:"Number of sessions to open against the shared plan.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print per-session counters and accounting.")
  in
  let no_fuse_arg =
    Arg.(
      value & flag
      & info [ "no-fuse" ]
          ~doc:
            "Skip build-time fusion (clones of unfused graphs are exact; \
             see DESIGN.md).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"K"
          ~doc:
            "Drain sessions over a pool of $(docv) OCaml domains with work \
             stealing (default 1: sequential). Per-session change traces \
             are identical either way.")
  in
  let run file replay n print_stats no_fuse domains upgrade_at =
    or_die (fun () ->
        let program, ty = load_checked file in
        let events =
          match replay with
          | None -> []
          | Some path ->
            let evs = Felm.Trace.parse (read_file path) in
            Felm.Trace.validate program evs;
            evs
        in
        let g, root = Felm.Denote.run_program program in
        match root with
        | Felm.Value.Vsignal root_id ->
          Felm.Sgraph.freeze g;
          let module D = Elm_serve.Dispatcher in
          let module S = Elm_serve.Session in
          (* Sessions run synchronously against the cached plan: no
             scheduler, no threads — the whole replay is plain code.
             --domains=K > 1 shards the drain across a domain pool; the
             observable traces are the same (B18's oracle). *)
          if domains < 1 then
            raise (Invalid_argument "--domains must be >= 1");
          (* Only unfused plans promise bit-identical traces across an
             upgrade (fused composite state is re-created at the seam). *)
          let no_fuse = no_fuse || upgrade_at <> None in
          let pool =
            if domains > 1 then Some (Elm_serve.Pool.create ~domains ())
            else None
          in
          let evs = Array.of_list events in
          let n_ev = Array.length evs in
          let skipped = ref 0 in
          (* One full replay. With [upgrade_at = Some k] the first [k]
             events drain, the graph is rebuilt from the same frozen FElm
             program (structurally identical, fresh node ids) and — when
             [upgrade] — hot-swapped under the live sessions, then the
             rest replays into the new graph's inputs. [upgrade:false]
             keeps the same split and drain pattern without the swap: the
             replay-differential reference. *)
          let run_once ~upgrade =
            skipped := 0;
            let inputs_of table =
              List.map
                (fun (name, id) -> (name, Hashtbl.find table id))
                (Felm.Sgraph.inputs g)
            in
            let table = Felm.Interp.build_signals program g in
            let d =
              D.create ~fuse:(not no_fuse) ?pool (Hashtbl.find table root_id)
            in
            let sessions = List.init n (fun _ -> D.open_session d) in
            let inject inputs lo hi =
              for j = lo to hi - 1 do
                let ev = evs.(j) in
                match List.assoc_opt ev.Felm.Trace.input inputs with
                | None -> incr skipped
                | Some input ->
                  List.iter
                    (fun s -> D.inject d s input ev.Felm.Trace.value)
                    sessions
              done
            in
            let patch =
              match upgrade_at with
              | None ->
                inject (inputs_of table) 0 n_ev;
                None
              | Some k ->
                let k = max 0 (min k n_ev) in
                inject (inputs_of table) 0 k;
                ignore (D.drain d);
                let inputs', patch =
                  if upgrade then begin
                    let table' = Felm.Interp.build_signals program g in
                    let patch =
                      D.upgrade_all d (Hashtbl.find table' root_id)
                    in
                    (inputs_of table', Some patch)
                  end
                  else (inputs_of table, None)
                in
                inject inputs' k n_ev;
                patch
            in
            ignore (D.drain d);
            (d, sessions, patch)
          in
          let d, sessions, patch = run_once ~upgrade:(upgrade_at <> None) in
          Printf.printf "-- %s : %s (%d sessions)\n" (Filename.basename file)
            (Felm.Ty.to_string ty) n;
          let shown s =
            List.map
              (fun (epoch, v) -> (epoch, Felm.Value.show v))
              (S.changes s)
          in
          (match sessions with
          | [] -> ()
          | s0 :: rest ->
            List.iter
              (fun (epoch, v) -> Printf.printf "[e%04d] %s\n" epoch v)
              (shown s0);
            let reference = shown s0 in
            let agree = List.for_all (fun s -> shown s = reference) rest in
            if agree then
              Printf.printf "sessions: %d identical change traces\n" n
            else begin
              Printf.printf "sessions: TRACES DIVERGED\n";
              exit 1
            end);
          (match (upgrade_at, patch) with
          | Some k, Some p ->
            let k = max 0 (min k n_ev) in
            Printf.printf "upgrade at %d: %d slots added, %d dropped\n" k
              (List.length (Elm_core.Upgrade.added_slots p))
              (List.length (Elm_core.Upgrade.dropped_slots p));
            (* replay-differential: the same split without the swap *)
            let _, ref_sessions, _ = run_once ~upgrade:false in
            let got = match sessions with [] -> [] | s :: _ -> shown s in
            let want =
              match ref_sessions with [] -> [] | s :: _ -> shown s
            in
            if got = want then
              Printf.printf
                "upgrade at %d: trace identical to non-upgraded replay\n" k
            else begin
              Printf.printf
                "upgrade at %d: TRACE DIVERGED from non-upgraded replay\n" k;
              exit 1
            end
          | _ -> ());
          if !skipped > 0 then
            Printf.printf "(%d trace events targeted unused inputs)\n" !skipped;
          if print_stats then begin
            Format.printf "accounting: %a@." D.pp_accounting (D.accounting d);
            List.iter (fun s -> Format.printf "stats %a@." S.pp_stats s) sessions;
            (* With a pool, also show where the work ran: per-domain counter
               rows (they merge back to the session totals) and the pool's
               scheduling activity. *)
            match pool with
            | None -> ()
            | Some p ->
              Array.iteri
                (fun i st ->
                  Format.printf "stats %a@."
                    (Elm_serve.Dispatcher.Stats.pp_labeled
                       (Printf.sprintf "d%d" i))
                    st)
                (D.domain_stats d);
              Array.iteri
                (fun i w ->
                  Printf.printf
                    "domain d%d: tasks=%d steals=%d idle_probes=%d\n" i
                    w.Elm_serve.Pool.ws_tasks w.Elm_serve.Pool.ws_steals
                    w.Elm_serve.Pool.ws_idle_probes)
                (Elm_serve.Pool.worker_stats p)
          end;
          Option.iter Elm_serve.Pool.close pool
        | v ->
          Printf.printf "-- %s : %s\n" (Filename.basename file)
            (Felm.Ty.to_string ty);
          Printf.printf "value: %s\n" (Felm.Value.show v))
  in
  let upgrade_at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "upgrade-at" ] ~docv:"N"
          ~doc:
            "After draining the first $(docv) replay events, rebuild the \
             graph from the same program (structurally identical, fresh \
             node ids) and hot-swap every live session onto it, then \
             replay the rest. The resulting trace is checked against a \
             non-upgraded replay with the same drain pattern. Implies \
             $(b,--no-fuse).")
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:
         "Serve N isolated sessions of one FElm program over a shared \
          compiled plan: the graph is compiled once, each session is an \
          arena copy, and the same replayed trace must produce identical \
          per-session change traces. With $(b,--upgrade-at) the plan is \
          hot-swapped mid-replay and the trace must not change.")
    Term.(
      const run $ file_arg $ replay_arg $ count_arg $ stats_arg $ no_fuse_arg
      $ domains_arg $ upgrade_at_arg)

let () =
  let info =
    Cmd.info "felmc" ~version:"1.0.0"
      ~doc:"Compiler and interpreter for FElm, the core calculus of \
            'Asynchronous Functional Reactive Programming for GUIs' (PLDI 2013)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; run_cmd; compile_cmd; graph_cmd; sessions_cmd ]))
