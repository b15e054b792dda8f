(* The manager's two warm tables, both keyed by file name and checked by
   exact byte equality: the interface table (a bin is unpickled once per
   distinct byte string and attached to every session that needs it)
   and the scan table (a source is parsed once per distinct byte
   string).  Neither may change what a build produces. *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Compile = Sepcomp.Compile
module Depgraph = Depend.Depgraph
module Pid = Digestkit.Pid

let counter name = Option.value ~default:0 (Obs.Metrics.find name)

(* [counted name f] — [f ()] and how much it moved counter [name] *)
let counted name f =
  let before = counter name in
  let result = f () in
  (result, counter name - before)

let bin fs file = Option.get (fs.Vfs.fs_read (file ^ ".bin"))

(* ------------------------------------------------------------------ *)
(* Interface table                                                     *)
(* ------------------------------------------------------------------ *)

(* The parent's path: a fresh session that reads its whole closure. *)
let fresh_compile fs graph file =
  let session = Compile.new_session () in
  let loaded =
    List.map
      (fun dep -> (dep, Compile.load session (bin fs dep)))
      (Depgraph.closure graph file)
  in
  let imports =
    List.map (fun dep -> List.assoc dep loaded) (Depgraph.node graph file).Depgraph.n_deps
  in
  let source = Option.get (fs.Vfs.fs_read file) in
  Compile.save session (Compile.compile session ~name:file ~source ~imports)

(* Re-pickling every interface of the table in a session that attached
   them all reproduces the bytes it was read from: compiling against
   an interface never changed it. *)
let table_unchanged mgr =
  let table = Driver.interfaces mgr in
  let session = Compile.new_session () in
  let entries = Compile.Ifaces.bindings table in
  List.iter
    (fun (file, bytes, _) -> ignore (Compile.Ifaces.load table session ~file bytes))
    entries;
  List.for_all
    (fun (_, bytes, unit_) -> String.equal (Compile.save session unit_) bytes)
    entries

let policies = [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ]

let prop_table_equals_fresh_sessions =
  QCheck.Test.make ~count:20
    ~name:"interface table: bins = fresh-session compiles"
    QCheck.(pair Test_props.project_arbitrary (oneofl policies))
    (fun ((topology, edits), policy) ->
      let fs, project, sources = Test_props.fresh_project topology in
      let mgr = Driver.create fs in
      let build_ok () =
        let stats = Driver.build mgr ~policy ~sources in
        let graph = Driver.scan mgr ~sources in
        List.for_all
          (fun file -> String.equal (fresh_compile fs graph file) (bin fs file))
          stats.Driver.st_recompiled
      in
      let first = build_ok () in
      let rest =
        List.mapi
          (fun i edit ->
            Gen.edit project (Test_props.victim_of project (i * 5)) edit;
            build_ok ())
          edits
      in
      first && List.for_all Fun.id rest && table_unchanged mgr)

let compile_bytes source =
  let session = Compile.new_session () in
  Compile.save session (Compile.compile session ~name:"a.sml" ~source ~imports:[])

let test_changed_bytes_miss () =
  let v1 = compile_bytes "structure A = struct val x = 1 end" in
  let v2 = compile_bytes "structure A = struct val x = 1 val y = 2 end" in
  let table = Compile.Ifaces.create () in
  let load bytes =
    counted "pickle.rehydrations" (fun () ->
        Compile.Ifaces.load table (Compile.new_session ()) ~file:"a.sml" bytes)
  in
  let u1, reads = load v1 in
  Alcotest.(check int) "first load reads" 1 reads;
  let u1', reads = load v1 in
  Alcotest.(check int) "same bytes: no read" 0 reads;
  Alcotest.(check bool) "same unit" true (u1 == u1');
  let u2, reads = load v2 in
  Alcotest.(check int) "changed bytes under the same name: read" 1 reads;
  Alcotest.(check bool) "the new interface" false
    (Pid.equal u1.Pickle.Binfile.uf_static_pid u2.Pickle.Binfile.uf_static_pid);
  let _, reads = load v1 in
  Alcotest.(check int) "one entry per file: the old bytes read again" 1 reads;
  (match load (String.sub v2 0 (String.length v2 - 1)) with
  | _ -> Alcotest.fail "a damaged bin loaded"
  | exception Pickle.Buf.Corrupt _ -> ());
  let _, reads = load v1 in
  Alcotest.(check int) "a damaged bin replaces nothing" 0 reads

(* ------------------------------------------------------------------ *)
(* Scan table                                                          *)
(* ------------------------------------------------------------------ *)

let a_src = "structure A = struct val x = 1 end"
let b_src = "structure B = struct val y = 2 end"
let c_src body = "structure C = struct val z = " ^ body ^ " end"
let sources = [ "a.sml"; "b.sml"; "c.sml" ]

let warm () =
  let fs = Vfs.memory () in
  List.iter
    (fun (file, src) -> fs.Vfs.fs_write file src)
    [ ("a.sml", a_src); ("b.sml", b_src); ("c.sml", c_src "A.x") ];
  let mgr = Driver.create fs in
  ignore (Driver.build mgr ~policy:Driver.Cutoff ~sources);
  (fs, mgr)

let deps_of mgr file =
  (Depgraph.node (Driver.scan mgr ~sources) file).Depgraph.n_deps

let cause_of stats file =
  Option.map Driver.cause_name (List.assoc_opt file stats.Driver.st_causes)
  |> Option.value ~default:"none"

(* C.z after running the last build *)
let result mgr =
  let dynenv = Driver.run mgr ~sources in
  let c = Driver.unit_of mgr "c.sml" in
  let _, pid = List.hd c.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports in
  match Pid.Map.find pid dynenv with
  | Dynamics.Value.Vrecord fields -> (
    match Support.Symbol.Map.find (Support.Symbol.intern "z") fields with
    | Dynamics.Value.Vint n -> n
    | v -> Alcotest.fail (Dynamics.Value.to_string v))
  | v -> Alcotest.fail (Dynamics.Value.to_string v)

let forced_reason stats file =
  Option.bind (List.assoc_opt file stats.Driver.st_causes) Driver.cause_detail

let test_import_edits_update_graph () =
  let fs, mgr = warm () in
  Alcotest.(check (list string)) "c imports a" [ "a.sml" ] (deps_of mgr "c.sml");
  fs.Vfs.fs_write "c.sml" (c_src "A.x + B.y");
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list string)) "an added import" [ "a.sml"; "b.sml" ]
    (deps_of mgr "c.sml");
  Alcotest.(check string) "the edited unit" "source-changed" (cause_of stats "c.sml");
  Alcotest.(check int) "runs the new source" 3 (result mgr);
  (* move B into a.sml: c's source is untouched, its imports shrink *)
  fs.Vfs.fs_write "b.sml" "structure Q = struct end";
  fs.Vfs.fs_write "a.sml" (a_src ^ "\n" ^ b_src);
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list string)) "a dropped import" [ "a.sml" ] (deps_of mgr "c.sml");
  Alcotest.(check (option string)) "dropped: reason"
    (Some "dependency-set-changed") (forced_reason stats "c.sml");
  Alcotest.(check int) "still runs" 3 (result mgr);
  (* and back: c gains b.sml again *)
  fs.Vfs.fs_write "a.sml" a_src;
  fs.Vfs.fs_write "b.sml" b_src;
  let stats = Driver.build mgr ~policy:Driver.Cutoff ~sources in
  Alcotest.(check (list string)) "an added import, c untouched"
    [ "a.sml"; "b.sml" ] (deps_of mgr "c.sml");
  Alcotest.(check (option string)) "added: reason"
    (Some "dependency-set-changed") (forced_reason stats "c.sml");
  Alcotest.(check int) "still runs" 3 (result mgr)

let test_broken_then_fixed () =
  let fs, mgr = warm () in
  fs.Vfs.fs_write "a.sml" "structure A = struct val x = end";
  let build () =
    counted "build.scan_parses" (fun () ->
        Driver.build ~keep_going:true mgr ~policy:Driver.Cutoff ~sources)
  in
  let stats, parses = build () in
  Alcotest.(check (list string)) "a failed" [ "a.sml" ] (List.map fst stats.Driver.st_failed);
  Alcotest.(check (list string)) "c skipped" [ "c.sml" ] (List.map fst stats.Driver.st_skipped);
  Alcotest.(check int) "the broken source parsed" 1 parses;
  let _, parses = build () in
  Alcotest.(check int) "a broken source is parsed again" 1 parses;
  fs.Vfs.fs_write "a.sml" "structure A = struct val x = 40 end";
  let stats, parses = build () in
  Alcotest.(check int) "the fix parsed" 1 parses;
  Alcotest.(check int) "nothing failed" 0 (List.length stats.Driver.st_failed);
  (* the fix keeps A's interface, so c's bin from before the break
     stands *)
  Alcotest.(check (list string)) "a rebuilt, c cut off" [ "a.sml" ]
    stats.Driver.st_recompiled;
  Alcotest.(check int) "runs the fixed source" 40 (result mgr)

let test_unchanged_sources_parse_nothing () =
  let _fs, mgr = warm () in
  let stats, parses =
    counted "build.scan_parses" (fun () ->
        Driver.build mgr ~policy:Driver.Cutoff ~sources)
  in
  Alcotest.(check int) "null build" 3 (List.length stats.Driver.st_loaded);
  Alcotest.(check int) "a null build parses nothing" 0 parses;
  let _, parses =
    counted "build.scan_parses" (fun () ->
        Driver.run mgr ~sources:[ "b.sml"; "a.sml" ])
  in
  Alcotest.(check int) "run's fallback order parses nothing" 0 parses;
  let _, parses = counted "build.scan_parses" (fun () -> Driver.scan mgr ~sources) in
  Alcotest.(check int) "a scan parses nothing" 0 parses

let suite =
  [
    QCheck_alcotest.to_alcotest prop_table_equals_fresh_sessions;
    Alcotest.test_case "changed bin misses" `Quick test_changed_bytes_miss;
    Alcotest.test_case "import edits update the graph" `Quick
      test_import_edits_update_graph;
    Alcotest.test_case "broken source, then the fix" `Quick test_broken_then_fixed;
    Alcotest.test_case "unchanged sources parse nothing" `Quick
      test_unchanged_sources_parse_nothing;
  ]
