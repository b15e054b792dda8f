(* Alcotest sizes a run's name column to its longest suite name and cuts
   long case names to fit the rest of the line. The worker and lock-crash
   suites run as a second run so their case names keep the cut they were
   reported under when they had an executable of their own. *)
let core_suites =
  [
    ("support", Test_support.suite);
    ("digest", Test_digest.suite);
    ("lang", Test_lang.suite);
    ("elab", Test_elab.suite);
    ("eval", Test_eval.suite);
    ("sepcomp", Test_sepcomp.suite);
    ("irm", Test_irm.suite);
    ("keepgoing", Test_keepgoing.suite);
    ("workload", Test_workload.suite);
    ("pickle", Test_pickle.suite);
    ("simplify", Test_simplify.suite);
    ("matchcheck", Test_matchcheck.suite);
    ("interactive", Test_interactive.suite);
    ("link", Test_link.suite);
    ("relink", Test_relink.suite);
    ("depend", Test_depend.suite);
    ("properties", Test_props.suite);
    ("obs", Test_obs.suite);
    ("profile", Test_profile.suite);
    ("sched", Test_sched.suite);
    ("cache", Test_cache.suite);
    ("faults", Test_faults.suite);
    ("daemon", Test_daemon.suite);
    ("remote", Test_remote.suite);
    ("tables", Test_tables.suite);
  ]

let process_suites =
  [ ("worker", Test_worker.suite); ("lock-crash", Test_lockcrash.suite) ]

(* [test NAME_REGEX ...] selects suites by name, and Alcotest rejects a run
   whose suites it all filters out — so a run none of whose suites match is
   left out, unless no suite of either run matches. *)
let selects suites =
  match Array.to_list Sys.argv with
  | _ :: "test" :: re :: _ when re <> "" && re.[0] <> '-' ->
    let re = Re.compile (Re.Pcre.re re) in
    List.exists (fun (name, _) -> Re.execp re name) suites
  | _ -> true

let () =
  let runs = [ ("smlsep", core_suites); ("smlsep-worker", process_suites) ] in
  let runs =
    match List.filter (fun (_, suites) -> selects suites) runs with
    | [] -> [ List.hd runs ]
    | selected -> selected
  in
  let passed (name, suites) =
    match Alcotest.run ~and_exit:false name suites with
    | () -> true
    | exception Alcotest.Test_error -> false
  in
  if not (List.for_all Fun.id (List.map passed runs)) then exit 1
