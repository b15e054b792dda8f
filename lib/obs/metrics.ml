type kind = Counter | Gauge

type t = { m_name : string; m_kind : kind; mutable m_value : int }

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let register name kind =
  match Hashtbl.find_opt registry name with
  | Some m when m.m_kind = kind -> m
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s already registered with another kind"
         name)
  | None ->
    let m = { m_name = name; m_kind = kind; m_value = 0 } in
    Hashtbl.add registry name m;
    m

let counter name = register name Counter
let gauge name = register name Gauge

let name m = m.m_name
let value m = m.m_value

let incr m = m.m_value <- m.m_value + 1

let add m n =
  if n < 0 && m.m_kind = Counter then
    invalid_arg
      (Printf.sprintf "Obs.Metrics: counter %s cannot decrease" m.m_name);
  m.m_value <- m.m_value + n

let set m v =
  match m.m_kind with
  | Gauge -> m.m_value <- v
  | Counter ->
    invalid_arg (Printf.sprintf "Obs.Metrics: %s is a counter, not a gauge" m.m_name)

let find name = Option.map value (Hashtbl.find_opt registry name)

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, m.m_value) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let detach f =
  let since = Hashtbl.fold (fun _ m acc -> (m, m.m_value) :: acc) registry [] in
  let result = f () in
  let before m = Option.value ~default:0 (List.assq_opt m since) in
  let deltas =
    Hashtbl.fold
      (fun name m acc ->
        let v0 = before m in
        if m.m_kind = Counter && m.m_value > v0 then begin
          let d = m.m_value - v0 in
          m.m_value <- v0;
          (name, d) :: acc
        end
        else acc)
      registry []
  in
  (result, List.sort (fun (a, _) (b, _) -> String.compare a b) deltas)

let add_counters deltas =
  List.iter (fun (name, n) -> add (counter name) n) deltas

let reset () = Hashtbl.iter (fun _ m -> m.m_value <- 0) registry

let to_json () =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (snapshot ()))

(* the dump is deterministic: [snapshot] sorts by name, and the column
   width depends only on the set of registered names — byte-stable
   across runs and backends with the same instrumentation linked in *)
let pp ppf () =
  let entries = snapshot () in
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 24 entries
  in
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %d@." width name v)
    entries
