type t =
  | Global of int
  | Local of int
  | External of Digestkit.Pid.t * int

(* raw Local values never reach bin files (they are alpha-converted at
   export), so the process-wide counter does not threaten
   reproducibility *)
let counter = ref 0

let fresh () =
  incr counter;
  Local !counter

let local_counter () = !counter

let compare a b =
  match (a, b) with
  | Global x, Global y -> Int.compare x y
  | Global _, (Local _ | External _) -> -1
  | Local _, Global _ -> 1
  | Local x, Local y -> Int.compare x y
  | Local _, External _ -> -1
  | External _, (Global _ | Local _) -> 1
  | External (p, i), External (q, j) ->
    let c = Digestkit.Pid.compare p q in
    if c <> 0 then c else Int.compare i j

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let pp ppf = function
  | Global n -> Format.fprintf ppf "g%d" n
  | Local n -> Format.fprintf ppf "l%d" n
  | External (pid, idx) ->
    Format.fprintf ppf "x%s.%d" (Digestkit.Pid.short pid) idx

let to_string stamp = Format.asprintf "%a" pp stamp

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
