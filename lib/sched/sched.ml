type backend =
  | Serial
  | Workers of Worker.config
  | Remote of Remote.Fleet.config

let backend_name = function
  | Serial -> "serial"
  | Workers cfg -> Printf.sprintf "workers-%d" (max 1 cfg.Worker.w_jobs)
  | Remote cfg ->
    Printf.sprintf "remote-%d" (List.length cfg.Remote.Fleet.r_execs)

let default_jobs () = Domain.recommended_domain_count ()

let of_jobs ?worker_timeout_s n =
  if n <= 1 then Serial
  else
    let cfg = Worker.default_config ~jobs:n () in
    Workers
      {
        cfg with
        Worker.w_timeout_s =
          Option.value ~default:cfg.Worker.w_timeout_s worker_timeout_s;
      }

let jobs = function
  | Serial -> 1
  | Workers cfg -> max 1 cfg.Worker.w_jobs
  | Remote cfg ->
    (* a degraded fleet still runs one local compile at a time *)
    max 1
      (List.length cfg.Remote.Fleet.r_execs * max 1 cfg.Remote.Fleet.r_slots)

type ('job, 'result) action = Run of 'job | Done of 'result

type ('job, 'result) codec = {
  c_proto : Worker.proto;
  c_encode_job : 'job -> string;
  c_decode_result : string -> 'result;
}

(* the pipelined static/codegen phase split: [sp_execute] replaces
   [execute] and may call [notify] once, mid-job, with the unit's
   pickled static view; [sp_on_static] consumes that payload in the
   calling process, after which the node's dependents become
   dispatchable without waiting for the job's result *)
type ('job, 'result) split = {
  sp_execute : notify:(string -> unit) -> 'job -> 'result;
  sp_on_static : string -> string -> unit;
}

type 'result outcome =
  | Completed of 'result
  | Failed of exn
  | Skipped of string

type slots = { sl_jobs : int; sl_busy_s : float array; sl_wall_s : float }

(* the most recent run's slot accounting *)
let last_slots_ref : slots option ref = ref None
let last_slots () = !last_slots_ref

let m_dispatched = Obs.Metrics.counter "sched.dispatched"
let m_inline = Obs.Metrics.counter "sched.inline"
let m_retries = Obs.Metrics.counter "sched.retries"
let m_static_releases = Obs.Metrics.counter "sched.static_releases"
let g_jobs = Obs.Metrics.gauge "sched.jobs"

(* the ready queue: highest priority first, and — the determinism
   anchor — caller order among equals.  Whatever the priority map says,
   ties can never perturb dispatch order away from the serial order. *)
module Ready = Set.Make (struct
  type t = float * int * string

  let compare (pa, sa, na) (pb, sb, nb) =
    match Float.compare pb pa with
    | 0 -> ( match Int.compare sa sb with 0 -> String.compare na nb | c -> c)
    | c -> c
end)

(* Per-node scheduling state, driven entirely by the calling process.
   Two gates: [ns_staticw] counts dependencies whose *static* view is
   still unreleased and gates prepare/dispatch; [ns_waiting] counts
   unfinished dependencies and gates complete/settle.  Without the
   phase split a dependency only releases its static view when it
   finishes, so the gates coincide and this degenerates to the plain
   wavefront. *)
type 'result node_state = {
  ns_seq : int;  (** caller-order index — the deterministic tie-break *)
  ns_priority : float;
  mutable ns_staticw : int;  (** deps whose static view is unreleased *)
  mutable ns_waiting : int;  (** unfinished dependencies *)
  mutable ns_poisoned : string option;
      (** some upstream failure reached this node (the name is the first
          poison to arrive — a dispatch guard only; the reported culprit
          is recomputed deterministically at skip time) *)
  mutable ns_started : bool;  (** prepared (and possibly dispatched) *)
  mutable ns_static_done : bool;  (** own static view released *)
  mutable ns_held : ('result, exn) result option;
      (** an execute result that arrived while dependencies were still
          unfinished — settled (or discarded, if a dependency then
          fails) when the final gate opens *)
  mutable ns_outcome : 'result outcome option;
}

let run ?(retries = 0) ?(backoff_s = 0.001) ?(backoff_cap_s = 1.0)
    ?(retryable = fun _ -> false) ?(keep_going = false)
    ?(fatal = fun _ -> false) ?codec ?priority ?split backend ~order ~deps
    ~prepare ~execute ~complete =
  Obs.Trace.span ~cat:"sched"
    ~args:[ ("backend", backend_name backend) ]
    "sched.run"
  @@ fun () ->
  (* bounded retry with exponential backoff around every node callback:
     transient faults (a flaky file system, a racing process) get
     [retries] more chances before poisoning the node's cone.  The sleep
     is capped and jittered — several builds retrying the same flaky
     resource must not wake in lock-step and collide again. *)
  let attempt f x =
    let bo = Support.Backoff.create ~base_s:backoff_s ~cap_s:backoff_cap_s () in
    let rec go k =
      match f x with
      | v -> v
      | exception e when k < retries && retryable e ->
        Obs.Metrics.incr m_retries;
        let d = Support.Backoff.delay bo ~attempt:k in
        if d > 0. then Unix.sleepf d;
        go (k + 1)
    in
    go 0
  in
  let prepare = attempt prepare
  and complete node = attempt (complete node) in
  let exec ~notify job =
    match split with
    | None -> attempt execute job
    | Some sp -> attempt (sp.sp_execute ~notify) job
  in
  let prio = match priority with None -> fun _ -> 0. | Some f -> f in
  let workers = min (jobs backend) (max 1 (List.length order)) in
  Obs.Metrics.set g_jobs workers;
  (* per-slot busy time: how long each execution slot held a job, for
     the profile report's scheduler-efficiency figure.  Serial runs
     time their one inline slot; the pooled backends read it off the
     pool. *)
  let run_t0 = Unix.gettimeofday () in
  let busy = ref [| 0. |] in
  let states : (string, 'r node_state) Hashtbl.t =
    Hashtbl.create (List.length order)
  in
  let dependents : (string, string list) Hashtbl.t =
    Hashtbl.create (List.length order)
  in
  List.iteri
    (fun seq node ->
      let ds = deps node in
      Hashtbl.replace states node
        {
          ns_seq = seq;
          ns_priority = prio node;
          ns_staticw = List.length ds;
          ns_waiting = List.length ds;
          ns_poisoned = None;
          ns_started = false;
          ns_static_done = false;
          ns_held = None;
          ns_outcome = None;
        };
      List.iter
        (fun dep ->
          Hashtbl.replace dependents dep
            (node :: Option.value ~default:[] (Hashtbl.find_opt dependents dep)))
        ds)
    order;
  let dependents_of node =
    Option.value ~default:[] (Hashtbl.find_opt dependents node)
  in
  let remaining = ref (List.length order) in
  let ready = ref Ready.empty in
  let push node st =
    ready := Ready.add (st.ns_priority, st.ns_seq, node) !ready
  in
  (* jobs handed to a slot (worker process or executor) and not yet
     resolved; the pump dispatches from the ready queue only while this
     is below [workers], so late-arriving high-priority nodes are never
     stuck behind a long FIFO of already-queued low-priority ones *)
  let inflight = ref 0 in
  (* the pooled backends route jobs to a process pool created at the
     bottom of this function; [start] is mutually recursive with the
     bookkeeping, so it reaches the pool through this knot *)
  let pool_submit =
    ref (fun _node _job -> invalid_arg "Sched.run: worker pool not started")
  in
  (* ---- scheduling (shared by all backends) ---- *)
  (* which failed root a skipped node blames.  Evaluated only once every
     dependency has finished, so it is a function of the final outcome
     classes alone — the earliest failed root in caller order — and can
     never depend on completion timing.  (First-poisoner-wins would
     report whichever failure happened to land first, which differs
     between serial and pooled runs.) *)
  let skip_root node =
    let best = ref None in
    List.iter
      (fun dep ->
        let root =
          match (Hashtbl.find states dep).ns_outcome with
          | Some (Failed _) -> Some dep
          | Some (Skipped r) -> Some r
          | Some (Completed _) | None -> None
        in
        match root with
        | Some r -> (
          let seq = (Hashtbl.find states r).ns_seq in
          match !best with
          | Some (bseq, _) when bseq <= seq -> ()
          | Some _ | None -> best := Some (seq, r))
        | None -> ())
      (deps node);
    match !best with
    | Some (_, r) -> r
    | None -> assert false (* only poisoned nodes are skipped *)
  in
  let rec release_static node =
    let state = Hashtbl.find states node in
    if not state.ns_static_done then begin
      state.ns_static_done <- true;
      List.iter
        (fun dependent ->
          let dstate = Hashtbl.find states dependent in
          dstate.ns_staticw <- dstate.ns_staticw - 1;
          if
            dstate.ns_staticw = 0 && (not dstate.ns_started)
            && dstate.ns_poisoned = None
            && dstate.ns_outcome = None
          then push dependent dstate)
        (dependents_of node)
    end
  and finish node outcome =
    let state = Hashtbl.find states node in
    state.ns_outcome <- Some outcome;
    state.ns_held <- None;
    decr remaining;
    let culprit =
      match outcome with
      | Completed _ -> None
      | Failed _ -> Some node
      | Skipped root -> Some root
    in
    let down = dependents_of node in
    (match culprit with
    | Some root ->
      List.iter
        (fun dependent ->
          let dstate = Hashtbl.find states dependent in
          if dstate.ns_poisoned = None then dstate.ns_poisoned <- Some root)
        down
    | None -> ());
    (* finishing releases the static view, if nothing did so earlier;
       poison is marked first so a failed dependency never pushes its
       dependents into the ready queue *)
    release_static node;
    List.iter
      (fun dependent ->
        let dstate = Hashtbl.find states dependent in
        dstate.ns_waiting <- dstate.ns_waiting - 1;
        if dstate.ns_waiting = 0 && dstate.ns_outcome = None then
          match dstate.ns_poisoned with
          | Some _ ->
            (* a dependency failed after this node was (speculatively)
               dispatched on its static view: any held or still-running
               result is discarded — exactly what a serial run, which
               would never have attempted the node, observes *)
            finish dependent (Skipped (skip_root dependent))
          | None -> (
            match dstate.ns_held with
            | Some (Ok result) ->
              dstate.ns_held <- None;
              settle dependent result
            | Some (Error exn) ->
              dstate.ns_held <- None;
              fail dependent exn
            | None -> ()))
      down
  (* an exception the caller declared fatal (a signal-driven interrupt,
     not a unit failure) aborts the whole run immediately — even under
     [keep_going], which only shields per-unit failures.  The raise
     unwinds through the Fun.protect below, so pools still shut down. *)
  and fail node exn =
    if fatal exn then raise exn else finish node (Failed exn)
  and settle node result =
    match complete node result with
    | result -> finish node (Completed result)
    | exception exn -> fail node exn
  (* an execute result arrived.  With the split a node may resolve
     before its dependencies finished — hold the result until the final
     gate opens (complete must observe every dependency's completion),
     or discard it if a dependency fails in the meantime. *)
  and arrive node res =
    (match res with Error exn when fatal exn -> raise exn | _ -> ());
    let state = Hashtbl.find states node in
    if state.ns_outcome = None then
      if state.ns_waiting > 0 then state.ns_held <- Some res
      else
        match res with
        | Ok result -> settle node result
        | Error exn -> fail node exn
  and on_static node payload =
    (match split with
    | Some sp -> sp.sp_on_static node payload
    | None -> ());
    Obs.Metrics.incr m_static_releases;
    release_static node
  and start node =
    let state = Hashtbl.find states node in
    state.ns_started <- true;
    match prepare node with
    | exception exn -> fail node exn
    | Done result ->
      Obs.Metrics.incr m_inline;
      arrive node (Ok result)
    | Run job -> (
      match backend with
      | Serial ->
        let t0 = Unix.gettimeofday () in
        let result =
          match exec ~notify:(fun payload -> on_static node payload) job with
          | result -> Ok result
          | exception exn -> Error exn
        in
        !busy.(0) <- !busy.(0) +. Float.max 0. (Unix.gettimeofday () -. t0);
        arrive node result
      | Workers _ | Remote _ ->
        (* even a 1-worker pool goes out of process: isolation, not
           parallelism, is what it buys *)
        Obs.Metrics.incr m_dispatched;
        incr inflight;
        !pool_submit node job)
  in
  (* the pump: hand the best ready node to a free slot, repeatedly.
     Inline execution (Serial) resolves synchronously, so this loop
     alone drives a whole serial build; the pooled backends re-pump
     after every event. *)
  let rec pump () =
    if (not (Ready.is_empty !ready)) && !inflight < workers then begin
      let ((_, _, node) as top) = Ready.min_elt !ready in
      ready := Ready.remove top !ready;
      let state = Hashtbl.find states node in
      if
        state.ns_outcome = None && state.ns_poisoned = None
        && not state.ns_started
      then start node;
      pump ()
    end
  in
  List.iter
    (fun node ->
      let state = Hashtbl.find states node in
      if state.ns_staticw = 0 then push node state)
    order;
  (match backend with
  | (Workers _ | Remote _) as bk ->
    let codec =
      match codec with
      | Some c -> c
      | None ->
        invalid_arg "Sched.run: the Workers and Remote backends need a codec"
    in
    (* the worker pool and the executor fleet share one surface —
       submit / next_event / slot_busy / shutdown over Worker.event —
       so a single loop drives both *)
    let submit, next_ev, slot_busy_of, teardown =
      match bk with
      | Workers cfg ->
        let pool = Worker.create cfg codec.c_proto in
        ( (fun node payload -> Worker.submit pool ~id:node payload),
          (fun () -> Worker.next_event pool),
          (fun () -> Worker.slot_busy pool),
          fun () -> Worker.shutdown pool )
      | Remote cfg ->
        let fleet = Remote.Fleet.create cfg codec.c_proto in
        ( (fun node payload -> Remote.Fleet.submit fleet ~id:node payload),
          (fun () -> Remote.Fleet.next_event fleet),
          (fun () -> Remote.Fleet.slot_busy fleet),
          fun () -> Remote.Fleet.shutdown fleet )
      | Serial -> assert false
    in
    pool_submit := (fun node job -> submit node (codec.c_encode_job job));
    Fun.protect ~finally:teardown @@ fun () ->
    pump ();
    while !remaining > 0 do
      (match next_ev () with
      | Worker.Done (node, res) -> (
        decr inflight;
        match res with
        | Ok payload -> (
          match codec.c_decode_result payload with
          | result -> arrive node (Ok result)
          | exception exn -> arrive node (Error exn))
        | Error exn -> arrive node (Error exn))
      | Worker.Static (node, payload) -> on_static node payload);
      pump ()
    done;
    busy := slot_busy_of ()
  | Serial -> pump ());
  last_slots_ref :=
    Some
      {
        sl_jobs = Array.length !busy;
        sl_busy_s = Array.copy !busy;
        sl_wall_s = Unix.gettimeofday () -. run_t0;
      };
  let outcomes =
    List.map
      (fun node ->
        match (Hashtbl.find states node).ns_outcome with
        | Some outcome -> (node, outcome)
        | None -> assert false (* every node is finished by now *))
      order
  in
  (* deterministic failure: raise for the earliest failed node in
     [order], exactly as a serial left-to-right run would have.  Under
     [keep_going] the caller reads failures out of the outcome list
     instead; every node not downstream of a failure has still run. *)
  if not keep_going then
    (match
       List.find_opt (function _, Failed _ -> true | _ -> false) outcomes
     with
    | Some (_, Failed exn) -> raise exn
    | Some _ | None -> ());
  outcomes
