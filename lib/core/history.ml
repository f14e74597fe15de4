type 'a t = {
  h_cap : int option;
  mutable h_rev : 'a list;  (* newest first *)
  mutable h_len : int;
}

let create cap = { h_cap = cap; h_rev = []; h_len = 0 }
let copy h = { h with h_len = h.h_len }
let enabled h = match h.h_cap with Some 0 -> false | _ -> true

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record h x =
  match h.h_cap with
  | Some 0 -> ()
  | Some cap when h.h_len + 1 > 2 * cap ->
    h.h_rev <- take cap (x :: h.h_rev);
    h.h_len <- cap
  | None | Some _ ->
    h.h_rev <- x :: h.h_rev;
    h.h_len <- h.h_len + 1

let recent h =
  List.rev (match h.h_cap with None -> h.h_rev | Some cap -> take cap h.h_rev)
