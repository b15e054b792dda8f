(* The repository benchmark.

   perfbench --workload W --seed N --seconds S --trace 0|1

   Every workload runs in this one process on an in-memory file system,
   over a project generated from the seed (Project), and drives only
   public entry points: [Workload.Gen], [Irm.Driver.build]/[run], and,
   in the traced run, the compiler calls Replay makes.  One operation
   is one [Cutoff] build followed by [runs_per_op] whole-program
   [Driver.run]s; each is checked by a compiler-independent oracle and
   counts as failed when a check fails or it raises.

   Workloads (why each was chosen is recorded in BENCHMARK.json):
   - clean-serial: from-clean builds on [Serial], a fresh [Driver.t]
     each; compilation is nearly all of the work.
   - edit-loop: one warm [Driver.t] (the state the daemon holds) under a
     seeded stream of single-unit edits; the dependency scan dominates.
   - clean-workers: clean-serial's builds on [Workers] with 2 jobs; the
     compile work is the same, scheduling and IPC differ.

   The untraced run (--trace 0) prints the end-to-end metrics.  The
   traced run (--trace 1) prints the per-layer metrics: times from the
   program's own records of each real build (the per-unit compile
   phases a profile store keeps, the spans of the dependency scan and
   of the unit executions), counts from [Obs.Metrics] and
   [Driver.stats], and what a replay of every build's compiles shows
   (Replay).  The last line of standard output
   is one JSON object: correct, attempted, failed, metrics. *)

module Driver = Irm.Driver

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile q xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let reported = ref 0

(* [checked f] — one attempted operation; it fails when [f] returns
   problems or raises.  The first few problems go to stderr. *)
let checked f =
  incr attempted;
  let problems =
    match f () with
    | problems -> problems
    | exception e -> [ "raised " ^ Printexc.to_string e ]
  in
  if problems <> [] then begin
    incr failed;
    List.iter
      (fun msg ->
        if !reported < 20 then prerr_endline ("perfbench: check failed: " ^ msg);
        incr reported)
      problems
  end

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

type workload = Clean_serial | Edit_loop | Clean_workers

let workloads =
  [
    ("clean-serial", Clean_serial);
    ("edit-loop", Edit_loop);
    ("clean-workers", Clean_workers);
  ]

let backend_of = function
  | Clean_serial | Edit_loop -> Driver.Serial
  | Clean_workers -> Driver.Workers (Worker.default_config ~jobs:2 ())

type op = {
  o_build_s : float;
  o_run_s : float list;  (** [runs_per_op] timed runs *)
  o_stats : Driver.stats;
  o_edit : Workload.Gen.edit option;  (** edit-loop: the edit before the build *)
  o_counters : (string * int) list;  (** Obs.Metrics deltas *)
  o_minor_words : float;  (** allocated by the build, this process *)
  o_program_traced : bool;  (** the program's own tracing was on *)
  o_phases : (string * float) list;
      (** traced runs only: the build's per-unit compile phases
          ([rehydrate], [parse], ... [save]), summed over its units *)
  o_scan_s : float;  (** traced runs only: the build's dependency scan *)
  o_execute_s : float;  (** traced runs only: the first run's unit executions *)
}

let build ?profile ~backend driver ~sources =
  Driver.build ?profile ~backend driver ~policy:Driver.Cutoff ~sources

(* A run is short next to a build, so each operation times several. *)
let runs_per_op = 3

(* [spans traced f] — with [traced], [f ()] and the total seconds of
   each span name the program recorded inside it on this domain. *)
let spans traced f = if traced then Obs.Trace.record_phases f else (f (), [])

let span_s name spans = Option.value ~default:0. (List.assoc_opt name spans)

(* The per-unit phases of the build a profile store recorded last,
   summed over the units: the records every compile job sends back, from
   worker children too. *)
let phases_of profile =
  match Option.bind profile Obs.Profile.last with
  | None -> []
  | Some b ->
    let sums = Hashtbl.create 8 in
    List.iter
      (fun (u : Obs.Profile.unit_profile) ->
        List.iter
          (fun (name, s) ->
            Hashtbl.replace sums name
              (s +. Option.value ~default:0. (Hashtbl.find_opt sums name)))
          u.up_phases)
      b.bp_units;
    List.of_seq (Hashtbl.to_seq sums)

(* One operation: a timed build, then timed runs; the first run's
   environment is the one the oracle checks.  With [program_traced],
   the program's own tracing ([Obs.Trace]) records the build and the
   runs, as [--trace] does for a user.  With [traced], the build goes
   to a fresh in-memory profile store and its spans and the first run's
   are collected, for the layer numbers.  The run's dynamic environment
   is returned beside the record, which outlives it: holding every
   run's code and values would grow the heap that later builds
   collect. *)
let operation ~backend ~traced ~program_traced ~edit driver ~sources =
  let profile = if traced then Some (Obs.Profile.load (Vfs.memory ())) else None in
  let before = Obs.Metrics.snapshot () in
  if program_traced then Obs.Trace.enable ();
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let stats, build_spans =
    spans traced (fun () -> build ?profile ~backend driver ~sources)
  in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let dynenv, run_spans =
    spans traced (fun () -> Driver.run ~output:ignore driver ~sources)
  in
  let t2 = now () in
  let rerun () =
    let t = now () in
    ignore (Driver.run ~output:ignore driver ~sources);
    now () -. t
  in
  let reruns = List.init (runs_per_op - 1) (fun _ -> rerun ()) in
  if program_traced then begin
    Obs.Trace.disable ();
    Obs.Trace.reset ()
  end;
  ( {
    o_build_s = t1 -. t0;
    o_run_s = (t2 -. t1) :: reruns;
    o_stats = stats;
    o_edit = edit;
    o_counters = Replay.counters_delta before (Obs.Metrics.snapshot ());
    o_minor_words = w1 -. w0;
    o_program_traced = program_traced;
    o_phases = phases_of profile;
    o_scan_s = span_s "build.scan_sources" build_spans;
    o_execute_s = span_s "link.execute" run_spans;
  },
    dynenv )

let bins_problem what got reference =
  if got = reference then [] else [ what ^ ": bins differ from the reference serial build" ]

(* §5 pid invariance, as the IRM's cutoff sees it: a comment or
   implementation edit recompiles exactly the edited unit, and its
   interface pid is unchanged; an interface edit recompiles the edited
   unit and nothing outside its direct importers. *)
let cutoff_problems decls file kind (stats : Driver.stats) =
  let name = Workload.Gen.edit_name kind in
  match kind with
  | Workload.Gen.Touch | Workload.Gen.Impl_change ->
    if stats.st_recompiled = [ file ] && stats.st_cutoff_hits = [ file ] then []
    else
      [
        Printf.sprintf "%s of %s recompiled [%s] with cutoff hits [%s]" name file
          (String.concat " " stats.st_recompiled)
          (String.concat " " stats.st_cutoff_hits);
      ]
  | Workload.Gen.Iface_change ->
    let allowed = file :: Project.importers decls file in
    if
      List.mem file stats.st_recompiled
      && List.for_all (fun f -> List.mem f allowed) stats.st_recompiled
    then []
    else
      [
        Printf.sprintf "%s of %s recompiled [%s], importers are [%s]" name file
          (String.concat " " stats.st_recompiled)
          (String.concat " " (List.tl allowed));
      ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Set-up is repeated and its median reported, so the slow first
   repetitions of a process (an empty heap, cold caches) and one slow
   repetition later do not move [setup_s]. *)
let setup_reps = 7

(* Even a very short run takes this many operations.  [peak_heap_mb] is
   read when this many are done, not at the deadline: a faster program
   fits more operations into a run, and the heap must not read that as
   growth. *)
let min_ops = 8

(* The edit-loop's traffic: the percentage of edits that change an
   interface and of those that only touch a comment; the rest change an
   implementation.  No recorded editing sessions fix these shares, so
   they are a chosen mix: mostly implementation edits, some touches, a
   few interface edits.  [irm.iface_frac_above_p90] shows how much of
   [build_p90_s] the interface edits decide. *)
let iface_pct = 5
let touch_pct = 25

type result = {
  setup_s : float list;
  reference_bytes : int;
  top_heap_words : int;  (** after [min_ops] operations *)
  ops : op list;  (** in order *)
  replays : (op * Replay.build) list;
      (** traced runs only: the real operation and its replay *)
}

(* The bins of a serial from-clean build of [p]'s current sources. *)
let serial_clean_bins p =
  let fs = Project.clean_copy p in
  ignore (build ~backend:Driver.Serial (Driver.create fs) ~sources:p.Project.sources);
  Project.bins fs p.Project.sources

let run_workload workload ~seed ~seconds ~trace =
  let backend = backend_of workload in
  (* set-up: generate the project and take the warm-up build.  The
     reference bins come from a serial from-clean build: the first
     warm-up itself on Serial, one extra build on Workers. *)
  let reference = ref None in
  let setup_times = ref [] in
  let set_up () =
    let t0 = now () in
    let p = Project.create ~seed in
    let driver = Driver.create p.Project.fs in
    ignore (build ~backend driver ~sources:p.Project.sources);
    setup_times := (now () -. t0) :: !setup_times;
    let bins = Project.bins p.Project.fs p.Project.sources in
    if !reference = None then
      reference :=
        Some
          (match backend with
          | Driver.Serial -> bins
          | _ -> serial_clean_bins p);
    checked (fun () -> bins_problem "set-up build" bins (Option.get !reference));
    (p, driver)
  in
  (* earlier repetitions are dropped, so only one project stays live *)
  for _ = 2 to setup_reps do
    ignore (set_up ())
  done;
  let p, warm = set_up () in
  let reference = Option.get !reference in
  let sources = p.Project.sources in
  let rng = Random.State.make [| seed; 0xed17 |] in
  let ops = ref [] and replays = ref [] and top_heap_words = ref 0 in
  let deadline = now () +. seconds in
  let i = ref 0 in
  while !i < min_ops || now () < deadline do
    let program_traced = trace && !i mod 2 = 0 in
    checked (fun () ->
        let fs, driver, edit =
          match workload with
          | Clean_serial | Clean_workers ->
            let fs = Project.clean_copy p in
            (fs, Driver.create fs, None)
          | Edit_loop ->
            (* mostly implementation edits, some comment-only touches,
               a few interface edits *)
            let file = List.nth sources (Random.State.int rng Project.units) in
            let r = Random.State.int rng 100 in
            let kind =
              if r < iface_pct then Workload.Gen.Iface_change
              else if r < iface_pct + touch_pct then Workload.Gen.Touch
              else Workload.Gen.Impl_change
            in
            Workload.Gen.edit p.Project.gen file kind;
            (p.Project.fs, warm, Some (file, kind))
        in
        let op, dynenv =
          operation ~backend ~traced:trace ~program_traced
            ~edit:(Option.map snd edit) driver ~sources
        in
        ops := op :: !ops;
        let decls = Project.decls p in
        let problems =
          Project.wrong_seeds decls driver dynenv
          @
          match edit with
          | None -> bins_problem "build" (Project.bins fs sources) reference
          | Some (file, kind) -> cutoff_problems decls file kind op.o_stats
        in
        if trace then begin
          let replay =
            Replay.replay_build ~fs ~sources
              ~recompiled:op.o_stats.Driver.st_recompiled
          in
          replays := (op, replay) :: !replays;
          problems
          @ List.map
              (fun f -> "replayed bin of " ^ f ^ " differs from the real build's")
              replay.Replay.b_mismatches
        end
        else problems);
    incr i;
    if !i = min_ops then top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  (* the warm driver's bins after all the edits must be exactly what a
     from-clean build of the edited sources gives *)
  (match workload with
  | Edit_loop ->
    checked (fun () ->
        bins_problem "edit-loop final state" (Project.bins p.Project.fs sources)
          (serial_clean_bins p))
  | Clean_serial | Clean_workers -> ());
  {
    setup_s = !setup_times;
    reference_bytes = Project.bin_bytes reference;
    top_heap_words = !top_heap_words;
    ops = List.rev !ops;
    replays = List.rev !replays;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let counter name deltas =
  float (Option.value ~default:0 (List.assoc_opt name deltas))

(* Of the builds slower than the p90 of [ops]' builds, the share that
   followed an interface edit (0 when no build follows an edit). *)
let iface_frac_above_p90 ops =
  let p90 = percentile 0.9 (List.map (fun o -> o.o_build_s) ops) in
  let slow = List.filter (fun o -> o.o_edit <> None && o.o_build_s > p90) ops in
  let iface = List.filter (fun o -> o.o_edit = Some Workload.Gen.Iface_change) slow in
  if slow = [] then 0. else float (List.length iface) /. float (List.length slow)

let end_to_end r =
  let builds = List.map (fun o -> o.o_build_s) r.ops in
  [
    ("build_p50_s", median builds, "s");
    ("build_p90_s", percentile 0.9 builds, "s");
    ("run_p50_s", median (List.concat_map (fun o -> o.o_run_s) r.ops), "s");
    ("bin_kb", float r.reference_bytes /. 1024., "kB");
    (* this process only: Workers children are not included *)
    ( "peak_heap_mb",
      float (r.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
      "MB" );
    ("setup_s", median r.setup_s, "s");
    ( "ok_frac",
      float (!attempted - !failed) /. float (max 1 !attempted),
      "frac" );
  ]

(* The compile phases of a unit, as [Sepcomp.Compile.compile] records
   them; a job's [rehydrate] before and [save] after are not part of
   the compile. *)
let compile_phases = [ "parse"; "elaborate"; "hash"; "scan"; "translate"; "simplify" ]

let per_layer r =
  let rows = r.replays in
  let med f = median (List.map f rows) and avg f = mean (List.map f rows) in
  let phase name (op, _) = span_s name op.o_phases in
  let replayed name (_, b) = counter name b.Replay.b_counters in
  let real name (op, _) = counter name op.o_counters in
  let stats (op, _) = op.o_stats in
  let count f row = float (List.length (f (stats row))) in
  let wall row = (stats row).Driver.st_wall_s in
  let scan (op, _) = op.o_scan_s in
  let compile row = sum (List.map (fun p -> phase p row) compile_phases) in
  let unit_time row = sum (List.map snd (stats row).Driver.st_unit_times) in
  let scan_s = med scan and wall_s = med wall in
  let compile_s = med compile in
  let simplify_s = med (phase "simplify") in
  let hash_s = med (phase "hash") and write_s = med (phase "save") in
  let recompiled = avg (count (fun s -> s.Driver.st_recompiled)) in
  let cutoff_hits = avg (count (fun s -> s.Driver.st_cutoff_hits)) in
  let busy =
    sum (List.map (fun row -> sum (stats row).Driver.st_slot_busy_s) rows)
  and capacity =
    sum (List.map (fun row -> float (stats row).Driver.st_jobs *. wall row) rows)
  in
  let untraced = List.filter (fun o -> not o.o_program_traced) r.ops in
  let build_p50 traced =
    median
      (List.filter_map
         (fun o -> if o.o_program_traced = traced then Some o.o_build_s else None)
         r.ops)
  in
  [
    ("lang.parse_s", med (phase "parse"), "s");
    ("depend.scan_s", scan_s, "s");
    ("depend.scan_share", scan_s /. wall_s, "frac");
    ("statics.elaborate_s", med (phase "elaborate"), "s");
    ("lambda.translate_s", med (phase "translate"), "s");
    ("lambda.simplify_s", simplify_s, "s");
    ("lambda.simplify_share", simplify_s /. compile_s, "frac");
    ("lambda.simplify_rewrites", avg (replayed "simplify.rewrites"), "count");
    ("lambda.simplify_passes", avg (replayed "simplify.passes"), "count");
    ("lambda.ir_nodes_in", avg (fun (_, b) -> float b.Replay.b_nodes_in), "count");
    ("lambda.ir_nodes_out", avg (fun (_, b) -> float b.Replay.b_nodes_out), "count");
    ("pickle.hash_s", hash_s, "s");
    ("pickle.write_s", write_s, "s");
    ("pickle.read_s", med (phase "rehydrate"), "s");
    ("pickle.rehydrations", avg (replayed "pickle.rehydrations"), "count");
    ("pickle.distinct_interfaces", avg (fun (_, b) -> float b.Replay.b_distinct), "count");
    ("pickle.bytes_read", avg (replayed "pickle.bytes_read"), "B");
    ("pickle.bytes_written", avg (replayed "pickle.bytes_written"), "B");
    ("pickle.hash_pickle_share", (hash_s +. write_s) /. compile_s, "frac");
    ("core.compile_s", compile_s, "s");
    ("core.units_compiled", recompiled, "count");
    ("core.alloc_mwords", avg (fun (op, _) -> op.o_minor_words /. 1e6), "Mword");
    ("link.execute_s", med (fun (op, _) -> op.o_execute_s), "s");
    ( "link.executions",
      avg (real "link.executions") /. float runs_per_op,
      "count" );
    ("irm.wall_s", wall_s, "s");
    ("irm.recompiled", recompiled, "count");
    ("irm.loaded", avg (count (fun s -> s.Driver.st_loaded)), "count");
    ("irm.cutoff_hits", cutoff_hits, "count");
    ("irm.cutoff_ratio", cutoff_hits /. recompiled, "frac");
    ("irm.unit_time_s", med unit_time, "s");
    ( "irm.orchestration_s",
      med (fun row -> wall row -. scan row -. unit_time row),
      "s" );
    ("irm.iface_frac_above_p90", iface_frac_above_p90 untraced, "frac");
    ("sched.slot_busy_frac", busy /. capacity, "frac");
    ("sched.retries", avg (real "sched.retries"), "count");
    ("worker.ipc_bytes_out", avg (real "worker.ipc_bytes_out"), "B");
    ("worker.ipc_bytes_in", avg (real "worker.ipc_bytes_in"), "B");
    ("worker.spawns", avg (real "worker.spawns"), "count");
    ("worker.restarts", avg (real "worker.restarts"), "count");
    ("trace.build_p50_s", build_p50 true, "s");
    ("trace.overhead_s", build_p50 true -. build_p50 false, "s");
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct metrics =
  List.iter
    (fun (name, v, unit_) -> Printf.printf "  %-28s %14s %s\n" name (number v) unit_)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (number v) unit_)
          metrics))

let usage =
  "perfbench --workload clean-serial|edit-loop|clean-workers --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace in
  Printf.printf "perfbench %s seed=%d trace=%b: %d operations, %d builds\n"
    !workload !seed trace !attempted (List.length r.ops);
  if w = Edit_loop then
    Printf.printf "builds slower than the p90 that followed an interface edit: %.2f\n"
      (iface_frac_above_p90 (List.filter (fun o -> not o.o_program_traced) r.ops));
  let unfaithful =
    List.exists (fun (_, b) -> b.Replay.b_mismatches <> []) r.replays
  in
  let metrics =
    if not trace then end_to_end r
    else if unfaithful then begin
      print_endline
        "perfbench: replayed bins differ from the real build's; the layer \
         numbers are withheld";
      []
    end
    else per_layer r
  in
  print_result ~correct:(!failed = 0) metrics
