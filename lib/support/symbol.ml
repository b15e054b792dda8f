type t = { id : int; name : string }

let table : (string, t) Hashtbl.t = Hashtbl.create 1024
let next = ref 0

let intern name =
  match Hashtbl.find_opt table name with
  | Some sym -> sym
  | None ->
    let sym = { id = !next; name } in
    incr next;
    Hashtbl.add table name sym;
    sym

let name sym = sym.name
let id sym = sym.id
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash sym = sym.id
let pp ppf sym = Format.pp_print_string ppf sym.name

(* Fresh names only need to be distinct *within* one compiled term
   (binders never cross unit boundaries), so each compile numbers its
   generated binders from zero (see [with_fresh_scope]). *)
let counter = ref 0

let fresh base =
  incr counter;
  (* '%' cannot appear in a source identifier, so this never collides. *)
  intern (Printf.sprintf "%s%%%d" base !counter)

let with_fresh_scope f =
  let saved = !counter in
  counter := 0;
  Fun.protect ~finally:(fun () -> counter := saved) f

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
