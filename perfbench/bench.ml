(* Entry point: bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints the notes line and, as the last line of stdout, one JSON object
   with the keys correct, attempted, failed and metrics. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload \
     serve_sparse|app_fanout --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some x -> x | None -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0. || !trace < 0 then usage ();
  let seed = !seed and seconds = !seconds in
  let traced = !trace = 1 in
  let r =
    match (!workload, traced) with
    | "serve_sparse", false -> Serve.run Serve.serve_sparse ~seed ~seconds
    | "app_fanout", false -> App.run App.app_fanout ~seed ~seconds
    | ("serve_sparse" as workload), true ->
      Serve.run_traced Serve.serve_sparse ~workload ~seed ~seconds
    | ("app_fanout" as workload), true ->
      App.run_traced App.app_fanout ~workload ~seed ~seconds ~floor_events:16
        ~tracer_events:500
    | _ -> usage ()
  in
  Report.note r "ocaml" Sys.ocaml_version;
  Report.note r "domains" (string_of_int (Domain.recommended_domain_count ()));
  Report.print r
