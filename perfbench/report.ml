(* What one run reports: the output checks and a list of named metrics. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable attempted : int;  (* external events offered to the engine *)
  mutable failed : int;  (* refused, or part of a failed output check *)
  mutable checks_ok : bool;
  mutable metrics : metric list;  (* reversed *)
  mutable notes : (string * string) list;  (* reversed; printed, not scored *)
}

let create () =
  { attempted = 0; failed = 0; checks_ok = true; metrics = []; notes = [] }

let add r name unit_ value = r.metrics <- { name; value; unit_ } :: r.metrics
let note r key value = r.notes <- (key, value) :: r.notes

(* A failed check: [events] of the attempted events are counted failed. *)
let fail r ~what ~events =
  r.checks_ok <- false;
  r.failed <- r.failed + events;
  note r "check_failed" what

(* Non-finite values (a ratio over an empty phase) print as 0. *)
let json_float x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The notes go on one line, then the result as the last line of stdout. *)
let print r =
  let notes =
    List.rev_map (fun (k, v) -> json_string k ^ ": " ^ json_string v) r.notes
  in
  Printf.printf "notes: {%s}\n" (String.concat ", " notes);
  let metrics =
    List.rev_map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.checks_ok && r.failed = 0)
    (max 1 r.attempted) r.failed (String.concat ", " metrics)
