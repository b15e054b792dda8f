(* The wavefront scheduler: dispatch mechanics (ordering, failure
   determinism) on toy graphs, and the headline property — a build on
   worker processes is indistinguishable from a serial one: same bin
   bytes, same export pids, same recompiled/loaded/cache/cutoff
   partitions, under every policy. *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Pid = Digestkit.Pid

(* ---- mechanics on a toy diamond: a <- {b, c} <- d ---- *)

let toy_order = [ "a"; "b"; "c"; "d" ]

let toy_deps = function
  | "d" -> [ "b"; "c" ]
  | "b" | "c" -> [ "a" ]
  | _ -> []

let workers n = Sched.Workers (Worker.default_config ~jobs:n ())
let backends = [ Sched.Serial; workers 3 ]

exception Abort_now of string

(* Under [Workers], [execute] runs in a child process, reached through
   a codec.  Jobs and results here are plain strings, so the codec only
   has to carry the exceptions: [Failure] and [Abort_now] cross the
   pipe by a one-letter tag. *)
let string_codec execute =
  {
    Sched.c_proto =
      {
        Worker.p_handler = (fun ~id:_ job -> execute job);
        p_encode_exn =
          (function
          | Abort_now m -> "A" ^ m
          | Failure m -> "F" ^ m
          | e -> "F" ^ Printexc.to_string e);
        p_decode_exn =
          (fun s ->
            let m = String.sub s 1 (String.length s - 1) in
            if s.[0] = 'A' then Abort_now m else Failure m);
        p_fail = (fun ~id _ -> Failure ("worker failed on " ^ id));
      };
    c_encode_job = Fun.id;
    c_decode_result = Fun.id;
  }

(* [Sched.run] with [execute] installed for every backend: inline for
   [Serial], through {!string_codec} in the worker children *)
let run_toy ?keep_going ?fatal backend ~order ~deps ~prepare ~execute =
  Sched.run ?keep_going ?fatal ~codec:(string_codec execute)
    backend ~order ~deps ~prepare ~execute
    ~complete:(fun _ result -> result)

let test_outcomes_in_caller_order () =
  List.iter
    (fun backend ->
      let outcomes =
        run_toy backend ~order:toy_order ~deps:toy_deps
          ~prepare:(fun node ->
            if String.equal node "c" then Sched.Done "cached-c"
            else Sched.Run node)
          ~execute:(fun node -> "ran-" ^ node)
      in
      Alcotest.(check (list string))
        (Sched.backend_name backend ^ ": caller order")
        toy_order (List.map fst outcomes);
      List.iter
        (fun (node, outcome) ->
          match outcome with
          | Sched.Completed result ->
            let expected =
              if String.equal node "c" then "cached-c" else "ran-" ^ node
            in
            Alcotest.(check string) node expected result
          | Sched.Failed _ | Sched.Skipped _ ->
            Alcotest.fail (node ^ " should have completed"))
        outcomes)
    backends

let test_earliest_failure_raised () =
  (* b and c both fail; the surfaced error must be b's (the earliest
     failed node in the given order), whatever completed first *)
  List.iter
    (fun backend ->
      match
        run_toy backend ~order:toy_order ~deps:toy_deps
          ~prepare:(fun node -> Sched.Run node)
          ~execute:(fun node ->
            match node with "b" | "c" -> failwith node | _ -> node)
      with
      | _ -> Alcotest.fail "expected the build to fail"
      | exception Failure culprit ->
        Alcotest.(check string)
          (Sched.backend_name backend ^ ": earliest failure")
          "b" culprit)
    backends

let test_fatal_overrides_keep_going () =
  (* under keep_going a failure is contained to its cone — but an exn
     the caller declares fatal (the CLI's SIGINT) must abort the whole
     build immediately, on every backend *)
  List.iter
    (fun backend ->
      (match
         run_toy ~keep_going:true
           ~fatal:(function Abort_now _ -> true | _ -> false)
           backend ~order:toy_order ~deps:toy_deps
           ~prepare:(fun node -> Sched.Run node)
           ~execute:(fun node ->
             if String.equal node "b" then raise (Abort_now node) else node)
       with
      | _ -> Alcotest.fail "fatal exception must escape keep_going"
      | exception Abort_now culprit ->
        Alcotest.(check string)
          (Sched.backend_name backend ^ ": fatal re-raised")
          "b" culprit);
      (* the same failure without the fatal predicate stays contained *)
      let outcomes =
        run_toy ~keep_going:true backend ~order:toy_order ~deps:toy_deps
          ~prepare:(fun node -> Sched.Run node)
          ~execute:(fun node ->
            if String.equal node "b" then raise (Abort_now node) else node)
      in
      List.iter
        (fun (node, outcome) ->
          match (node, outcome) with
          | "b", Sched.Failed (Abort_now _) | "d", Sched.Skipped _ -> ()
          | ("a" | "c"), Sched.Completed _ -> ()
          | _ -> Alcotest.fail (node ^ ": unexpected outcome"))
        outcomes)
    backends

let test_complete_respects_deps () =
  (* on a 40-node dag under heavy parallelism, every [complete] must
     still see all its dependencies completed (they run in the calling
     process, so the table below observes every one of them) *)
  let n = 40 in
  let name i = Printf.sprintf "n%02d" i in
  let deps_of node =
    let i = int_of_string (String.sub node 1 2) in
    if i = 0 then []
    else
      List.sort_uniq compare [ ((i * 7) + 1) mod i; ((i * 13) + 5) mod i ]
      |> List.map name
  in
  let order = List.init n name in
  let completed = Hashtbl.create n in
  let outcomes =
    Sched.run (workers 8) ~order ~deps:deps_of
      ~codec:(string_codec Fun.id)
      ~prepare:(fun node -> Sched.Run node)
      ~execute:(fun node -> node)
      ~complete:(fun node result ->
        List.iter
          (fun dep ->
            if not (Hashtbl.mem completed dep) then
              Alcotest.fail
                (Printf.sprintf "%s completed before its dependency %s" node
                   dep))
          (deps_of node);
        Hashtbl.replace completed node ();
        result)
  in
  Alcotest.(check int) "all nodes completed" n (List.length outcomes)

(* ---- dispatch order ---- *)

let test_caller_order_dispatch () =
  (* Serial executes inline, so the execute log IS the dispatch order.
     Among ready nodes the earliest in caller order goes first — also
     when it became ready later than nodes queued behind it *)
  let run ~order ~deps =
    let log = ref [] in
    ignore
      (Sched.run Sched.Serial ~order ~deps
         ~prepare:(fun node -> Sched.Run node)
         ~execute:(fun node ->
           log := node :: !log;
           node)
         ~complete:(fun _ result -> result));
    List.rev !log
  in
  Alcotest.(check (list string))
    "independent nodes: caller order" [ "a"; "b"; "c"; "d" ]
    (run ~order:[ "a"; "b"; "c"; "d" ] ~deps:(fun _ -> []));
  Alcotest.(check (list string))
    "a node ready late still precedes later nodes" [ "a"; "b"; "c"; "d" ]
    (run ~order:[ "a"; "b"; "c"; "d" ] ~deps:(function
       | "b" -> [ "a" ]
       | _ -> []));
  Alcotest.(check (list string))
    "diamond: caller order" toy_order
    (run ~order:toy_order ~deps:toy_deps)

(* ---- the backend never changes outcomes ---- *)

(* A random DAG at the Sched level: a seeded subset of nodes fail.
   Under keep_going the outcome list — payloads, failure messages, skip
   culprits — must be identical to the serial run's on every backend
   and job count. *)

let sched_case ~nodes ~seed =
  let rng = Random.State.make [| seed |] in
  let name i = Printf.sprintf "n%02d" i in
  let order = List.init nodes name in
  let deps_tbl = Hashtbl.create nodes in
  let fails_tbl = Hashtbl.create nodes in
  List.iteri
    (fun i node ->
      let deps =
        if i = 0 then []
        else
          List.init (Random.State.int rng 3) (fun _ ->
              name (Random.State.int rng i))
          |> List.sort_uniq compare
      in
      Hashtbl.replace deps_tbl node deps;
      if Random.State.int rng 4 = 0 then Hashtbl.replace fails_tbl node ())
    order;
  ( order,
    (fun node -> Hashtbl.find deps_tbl node),
    fun node -> Hashtbl.mem fails_tbl node )

let outcome_repr outcomes =
  List.map
    (fun (node, outcome) ->
      ( node,
        match outcome with
        | Sched.Completed result -> "completed:" ^ result
        | Sched.Failed (Failure msg) -> "failed:" ^ msg
        | Sched.Failed exn -> "failed:" ^ Printexc.to_string exn
        | Sched.Skipped culprit -> "skipped:" ^ culprit ))
    outcomes

let run_sched_case backend (order, deps, fails) =
  run_toy ~keep_going:true backend ~order ~deps
    ~prepare:(fun node -> Sched.Run node)
    ~execute:(fun node ->
      if fails node then failwith ("boom-" ^ node) else "ok-" ^ node)
  |> outcome_repr

let prop_backends_preserve_outcomes =
  QCheck.Test.make ~count:8 ~name:"workers never change outcomes"
    QCheck.(pair (int_range 0 1000) (int_range 8 24))
    (fun (seed, nodes) ->
      let case = sched_case ~nodes ~seed in
      let reference = run_sched_case Sched.Serial case in
      List.iter
        (fun backend ->
          if run_sched_case backend case <> reference then
            QCheck.Test.fail_reportf
              "seed %d, %d nodes, %s: outcomes diverge from the serial run"
              seed nodes
              (Sched.backend_name backend))
        [ workers 1; workers 2; workers 4 ];
      true)

(* ---- workers ≡ serial on generated projects ---- *)

let policies = [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ]

(* Cold build, implementation edit, interface edit — rebuilding after
   each — then collect everything observable: the per-build partitions,
   every unit's bin bytes, every unit's export pid. *)
let build_sequence backend policy ~seed ~units =
  let fs = Vfs.memory () in
  let project =
    Gen.create fs
      (Gen.Random_dag { units; max_deps = 3; seed })
      Gen.default_profile
  in
  let mgr = Driver.create fs in
  let sources = Gen.sources project in
  let partitions stats =
    ( stats.Driver.st_recompiled,
      stats.Driver.st_loaded,
      stats.Driver.st_cache_hits,
      stats.Driver.st_cutoff_hits )
  in
  let s0 = Driver.build ~backend mgr ~policy ~sources in
  Gen.edit project (Gen.middle_file project) Gen.Impl_change;
  let s1 = Driver.build ~backend mgr ~policy ~sources in
  Gen.edit project (Gen.base_file project) Gen.Iface_change;
  let s2 = Driver.build ~backend mgr ~policy ~sources in
  let bins =
    List.map (fun f -> Option.get (fs.Vfs.fs_read (f ^ ".bin"))) sources
  in
  let exports =
    List.map
      (fun f -> Pid.to_hex (Driver.unit_of mgr f).Pickle.Binfile.uf_static_pid)
      sources
  in
  (List.map partitions [ s0; s1; s2 ], bins, exports)

let check_parallel_equals_serial policy ~seed ~jobs ~units =
  let parts_s, bins_s, exports_s =
    build_sequence Driver.Serial policy ~seed ~units
  in
  let parts_p, bins_p, exports_p =
    build_sequence (workers jobs) policy ~seed ~units
  in
  if parts_s <> parts_p then
    Alcotest.fail
      (Printf.sprintf "%s/seed %d: build partitions differ"
         (Driver.policy_name policy) seed);
  Alcotest.(check (list string))
    (Printf.sprintf "%s/seed %d: export pids" (Driver.policy_name policy) seed)
    exports_s exports_p;
  List.iteri
    (fun i b_s ->
      if not (String.equal b_s (List.nth bins_p i)) then
        Alcotest.fail
          (Printf.sprintf "%s/seed %d: bin bytes of unit %d differ"
             (Driver.policy_name policy) seed i))
    bins_s

let test_parallel_equals_serial policy () =
  check_parallel_equals_serial policy ~seed:23 ~jobs:4 ~units:12

(* a compile in a worker child counts into the child's registry; its
   increments ride back in the result, so the building process reports
   the same compile-side counters whichever backend ran the compiles.
   Reads are the exception: a serial build shares the manager's
   interface table with its jobs and reads each built unit once (when
   its result is merged), while each worker child fills a table of its
   own and the merge reads every result again. *)
let test_workers_report_compile_counters () =
  let counters = [ "compile.units"; "simplify.rewrites"; "pickle.rehydrations"; "hash.pids" ] in
  let units = 12 in
  let deltas backend =
    let fs = Vfs.memory () in
    let project =
      Gen.create fs
        (Gen.Random_dag { units; max_deps = 3; seed = 5 })
        Gen.default_profile
    in
    let value name = Option.value ~default:0 (Obs.Metrics.find name) in
    let before = List.map value counters in
    ignore
      (Driver.build ~backend (Driver.create fs) ~policy:Driver.Cutoff
         ~sources:(Gen.sources project));
    List.map2 (fun name v0 -> (name, value name - v0)) counters before
  in
  let serial = deltas Driver.Serial in
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool) (name ^ " counted by a serial build") true (n > 0))
    serial;
  let workers = deltas (workers 2) in
  let without_reads =
    List.filter (fun (name, _) -> name <> "pickle.rehydrations")
  in
  Alcotest.(check (list (pair string int)))
    "workers-2 = serial, reads aside" (without_reads serial)
    (without_reads workers);
  Alcotest.(check int) "serial reads each built unit once" units
    (List.assoc "pickle.rehydrations" serial);
  Alcotest.(check bool) "workers-2 read at least as often" true
    (List.assoc "pickle.rehydrations" workers >= units)

let prop_parallel_equals_serial =
  QCheck.Test.make ~count:6 ~name:"parallel build = serial build"
    QCheck.(
      triple (int_range 0 1000) (int_range 2 6)
        (oneofl ~print:Driver.policy_name policies))
    (fun (seed, jobs, policy) ->
      check_parallel_equals_serial policy ~seed ~jobs ~units:10;
      true)

let suite =
  [
    Alcotest.test_case "outcomes in caller order" `Quick
      test_outcomes_in_caller_order;
    Alcotest.test_case "earliest failure raised" `Quick
      test_earliest_failure_raised;
    Alcotest.test_case "fatal overrides keep_going" `Quick
      test_fatal_overrides_keep_going;
    Alcotest.test_case "complete respects dependencies" `Quick
      test_complete_respects_deps;
    Alcotest.test_case "ready nodes dispatch in caller order" `Quick
      test_caller_order_dispatch;
    QCheck_alcotest.to_alcotest prop_backends_preserve_outcomes;
    Alcotest.test_case "parallel = serial (timestamp)" `Quick
      (test_parallel_equals_serial Driver.Timestamp);
    Alcotest.test_case "parallel = serial (cutoff)" `Quick
      (test_parallel_equals_serial Driver.Cutoff);
    Alcotest.test_case "parallel = serial (selective)" `Quick
      (test_parallel_equals_serial Driver.Selective);
    QCheck_alcotest.to_alcotest prop_parallel_equals_serial;
    Alcotest.test_case "workers report compile counters" `Quick
      test_workers_report_compile_counters;
  ]
