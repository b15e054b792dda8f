type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;
  ev_pid : int; (* 0 = this process; a worker child's OS pid otherwise *)
  ev_args : (string * string) list;
}

(* the clock may be too coarse to order back-to-back spans, a sequence
   number is not: events sort by (start, seq), so same-process spans
   keep their entry order and injected child events interleave by
   timestamp *)
type pending = { p_event : event; p_seq : int }

let on = ref false
let epoch = ref 0.0
let depth = ref 0
let next_seq = ref 0
let completed : pending list ref = ref [] (* reverse completion order *)

(* a long-running daemon traces forever: bound the buffer so it holds
   the most recent [cap] events instead of growing without limit.
   0 = unbounded (the one-shot CLI default). *)
let cap = ref 0
let buffered = ref 0 (* length of [completed] *)

let set_cap n = cap := max 0 n

let trim () =
  let c = !cap in
  if c > 0 && !buffered > c then begin
    (* [completed] is newest-first: keep the first [c] *)
    let rec take n = function
      | x :: tl when n > 0 -> x :: take (n - 1) tl
      | _ -> []
    in
    completed := take c !completed;
    buffered := c
  end

let enabled () = !on
let epoch_s () = !epoch

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let reset () =
  completed := [];
  buffered := 0;
  depth := 0;
  next_seq := 0;
  epoch := Unix.gettimeofday ()

let enable () =
  reset ();
  on := true

let disable () = on := false

let take_seq () =
  let seq = !next_seq in
  incr next_seq;
  seq

let record ev seq =
  completed := { p_event = ev; p_seq = seq } :: !completed;
  incr buffered;
  trim ()

(* ------------------------------------------------------------------ *)
(* Phase collection                                                    *)
(*                                                                     *)
(* [record_phases] captures the (name, duration) of every span that    *)
(* completes inside its thunk even when tracing is globally off — the  *)
(* profile store needs per-phase durations on every build, not only    *)
(* traced ones.                                                       *)
(* ------------------------------------------------------------------ *)

let phases : (string * float) list ref option ref = ref None

let note_phase name dur_s =
  match !phases with
  | None -> ()
  | Some acc -> acc := (name, dur_s) :: !acc

let record_phases f =
  let saved = !phases in
  let acc = ref [] in
  phases := Some acc;
  match f () with
  | result ->
    phases := saved;
    (* aggregate repeated phase names, first-seen order *)
    let order = ref [] and sums = Hashtbl.create 8 in
    List.iter
      (fun (name, dur) ->
        (match Hashtbl.find_opt sums name with
        | None ->
          order := name :: !order;
          Hashtbl.add sums name dur
        | Some prev -> Hashtbl.replace sums name (prev +. dur)))
      (List.rev !acc);
    (result, List.rev_map (fun name -> (name, Hashtbl.find sums name)) !order)
  | exception exn ->
    phases := saved;
    raise exn

let span ?(cat = "") ?(args = []) name f =
  let collecting = !phases <> None in
  let tracing = !on in
  if not (tracing || collecting) then f ()
  else begin
    let seq = if tracing then take_seq () else 0 in
    let start = now_us () in
    let d = !depth in
    depth := d + 1;
    let finish () =
      depth := d;
      let dur_us = now_us () -. start in
      if collecting then note_phase name (dur_us /. 1e6);
      if tracing then
        record
          {
            ev_name = name;
            ev_cat = cat;
            ev_start_us = start;
            ev_dur_us = dur_us;
            ev_depth = d;
            ev_pid = 0;
            ev_args = args;
          }
          seq
    in
    match f () with
    | result ->
      finish ();
      result
    | exception exn ->
      finish ();
      raise exn
  end

let instant ?(cat = "") ?(args = []) name =
  if !on then begin
    let seq = take_seq () in
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_start_us = now_us ();
        ev_dur_us = 0.0;
        ev_depth = !depth;
        ev_pid = 0;
        ev_args = args;
      }
      seq
  end

(* a span whose start was observed out of band (a worker job the
   supervisor watched die): recorded after the fact, ending now *)
let record_span ?(cat = "") ?(args = []) ?(pid = 0) ~start_s name =
  if !on then begin
    let seq = take_seq () in
    let start_us = (start_s -. !epoch) *. 1e6 in
    record
      {
        ev_name = name;
        ev_cat = cat;
        ev_start_us = start_us;
        ev_dur_us = Float.max 0.0 (now_us () -. start_us);
        ev_depth = 0;
        ev_pid = pid;
        ev_args = args;
      }
      seq
  end

let events () =
  List.sort
    (fun a b ->
      match compare a.p_event.ev_start_us b.p_event.ev_start_us with
      | 0 -> compare a.p_seq b.p_seq
      | c -> c)
    !completed
  |> List.map (fun p -> p.p_event)

(* ------------------------------------------------------------------ *)
(* Cross-process transport                                             *)
(*                                                                     *)
(* Worker children buffer events exactly like the parent and ship them *)
(* over the frame IPC as a JSON array ([lib/obs] cannot use            *)
(* [Pickle.Buf]: pickle depends on obs).  The parent re-bases their    *)
(* clocks by the epoch offset exchanged at the HELLO handshake and     *)
(* tags them with the child's OS pid.                                  *)
(* ------------------------------------------------------------------ *)

let wire_event ev =
  Json.Obj
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String ev.ev_cat);
      ("ts", Json.Float ev.ev_start_us);
      ("dur", Json.Float ev.ev_dur_us);
      ("depth", Json.Int ev.ev_depth);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.ev_args));
    ]

(* remove and serialize every completed event (oldest first); [""] when
   there is nothing to ship *)
let drain_wire () =
  let drained = !completed in
  completed := [];
  buffered := 0;
  match drained with
  | [] -> ""
  | evs ->
    let evs =
      List.sort (fun a b -> compare a.p_seq b.p_seq) evs
      |> List.map (fun p -> p.p_event)
    in
    Json.to_string (Json.List (List.map wire_event evs))

let num_of = function
  | Some (Json.Float f) -> f
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.0

let int_of = function Some (Json.Int n) -> n | _ -> 0

let str_of = function Some (Json.String s) -> s | _ -> ""

let inject ~pid ~offset_us wire =
  if wire = "" || not !on then 0
  else
    match Json.parse wire with
    | Json.List items ->
      List.iter
        (fun item ->
          let args =
            match Json.member "args" item with
            | Some (Json.Obj fields) ->
              List.filter_map
                (fun (k, v) ->
                  match v with Json.String s -> Some (k, s) | _ -> None)
                fields
            | _ -> []
          in
          record
            {
              ev_name = str_of (Json.member "name" item);
              ev_cat = str_of (Json.member "cat" item);
              ev_start_us = num_of (Json.member "ts" item) +. offset_us;
              ev_dur_us = num_of (Json.member "dur" item);
              ev_depth = int_of (Json.member "depth" item);
              ev_pid = pid;
              ev_args = args;
            }
            (take_seq ()))
        items;
      List.length items
    | _ -> 0
    | exception Json.Parse_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let chrome_event ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String (if ev.ev_cat = "" then "smlsep" else ev.ev_cat));
      ("ph", Json.String (if ev.ev_dur_us = 0.0 then "i" else "X"));
      ("ts", Json.Float ev.ev_start_us);
      ("dur", Json.Float ev.ev_dur_us);
      ("pid", Json.Int (if ev.ev_pid = 0 then 1 else ev.ev_pid));
      (* one thread of control per process *)
      ("tid", Json.Int 1);
    ]
  in
  let args =
    match ev.ev_args with
    | [] -> []
    | args ->
      [
        ( "args",
          Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args) );
      ]
  in
  Json.Obj (base @ args)

let to_chrome () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map chrome_event (events ())));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome path =
  let oc = open_out_bin path in
  output_string oc (Json.to_string (to_chrome ()));
  output_char oc '\n';
  close_out oc

let pp_tree ppf () =
  List.iter
    (fun ev ->
      Format.fprintf ppf "%s%-*s %8.3f ms%s@."
        (String.make (2 * ev.ev_depth) ' ')
        (max 1 (32 - (2 * ev.ev_depth)))
        ev.ev_name (ev.ev_dur_us /. 1000.)
        (match ev.ev_args with
        | [] -> ""
        | args ->
          "  ["
          ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) args)
          ^ "]"))
    (events ())
