(* Property-based tests of the system's core invariants (DESIGN.md §5):
   policy inclusion, incremental-equals-scratch, pickle stability,
   hash invariance, and differential evaluation of generated programs
   against an OCaml reference. *)

module Gen = Workload.Gen
module Driver = Irm.Driver
module Compile = Sepcomp.Compile
module Value = Dynamics.Value
module Pid = Digestkit.Pid
module Symbol = Support.Symbol

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let topology_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Gen.Chain (2 + n)) (0 -- 6);
        map (fun n -> Gen.Fanout (1 + n)) (0 -- 6);
        map (fun n -> Gen.Diamond (1 + n)) (0 -- 3);
        map
          (fun (units, seed) ->
            Gen.Random_dag { units = 3 + units; max_deps = 3; seed })
          (pair (0 -- 9) (0 -- 1000));
      ])

let edit_gen =
  QCheck.Gen.oneofl [ Gen.Touch; Gen.Impl_change; Gen.Iface_change ]

let project_arbitrary =
  QCheck.make
    ~print:(fun ((_, rich), edits) ->
      Printf.sprintf "<topology%s + %d edits>"
        (if rich then " (rich)" else "")
        (List.length edits))
    QCheck.Gen.(pair (pair topology_gen bool) (list_size (1 -- 4) edit_gen))

let fresh_project (topology, rich) =
  let fs = Vfs.memory () in
  let profile = if rich then Gen.rich_profile else Gen.default_profile in
  let project = Gen.create fs topology profile in
  (fs, project, Gen.sources project)

(* pick a victim deterministically from an int seed *)
let victim_of project i =
  let sources = Gen.sources project in
  List.nth sources (i mod List.length sources)

(* ------------------------------------------------------------------ *)
(* Policy inclusion: selective ⊆ cutoff ⊆ timestamp                    *)
(* ------------------------------------------------------------------ *)

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_policy_inclusion =
  QCheck.Test.make ~count:40 ~name:"policies: selective ⊆ cutoff ⊆ timestamp"
    project_arbitrary
    (fun (topology, edits) ->
      let run policy =
        let fs, project, sources = fresh_project topology in
        ignore fs;
        let mgr = Driver.create fs in
        let _ = Driver.build mgr ~policy ~sources in
        List.concat_map
          (fun (i, edit) ->
            Gen.edit project (victim_of project i) edit;
            let stats = Driver.build mgr ~policy ~sources in
            stats.Driver.st_recompiled)
          (List.mapi (fun i e -> (i * 3, e)) edits)
      in
      let ts = run Driver.Timestamp in
      let co = run Driver.Cutoff in
      let se = run Driver.Selective in
      subset co ts && subset se co)

(* ------------------------------------------------------------------ *)
(* Incremental equals scratch                                          *)
(* ------------------------------------------------------------------ *)

let final_pids mgr sources =
  List.map
    (fun f -> Pid.to_hex (Driver.unit_of mgr f).Pickle.Binfile.uf_static_pid)
    sources

let prop_incremental_equals_scratch policy name =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "%s: incremental build = scratch build" name)
    project_arbitrary
    (fun (topology, edits) ->
      (* incremental: edits interleaved with builds *)
      let fs, project, sources = fresh_project topology in
      ignore fs;
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy ~sources in
      List.iteri
        (fun i edit ->
          Gen.edit project (victim_of project (i * 5)) edit;
          ignore (Driver.build mgr ~policy ~sources))
        edits;
      let incremental = final_pids mgr sources in
      (* scratch: the same final sources compiled from nothing *)
      let fs2, project2, sources2 = fresh_project topology in
      ignore fs2;
      List.iteri
        (fun i edit -> Gen.edit project2 (victim_of project2 (i * 5)) edit)
        edits;
      let mgr2 = Driver.create fs2 in
      let _ = Driver.build mgr2 ~policy ~sources:sources2 in
      let scratch = final_pids mgr2 sources2 in
      incremental = scratch)

(* ------------------------------------------------------------------ *)
(* Pickle stability                                                    *)
(* ------------------------------------------------------------------ *)

let prop_pickle_roundtrip =
  QCheck.Test.make ~count:30 ~name:"pickle: read∘write is stable and verified"
    project_arbitrary
    (fun (topology, _) ->
      let fs, _project, sources = fresh_project topology in
      ignore fs;
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      let session = Driver.session mgr in
      let ctx = Compile.context session in
      List.for_all
        (fun file ->
          let unit_ = Driver.unit_of mgr file in
          let bytes = Pickle.Binfile.write ctx unit_ in
          (* load into a brand-new context *)
          let session2 = Compile.new_session () in
          let ctx2 = Compile.context session2 in
          let unit2 = Pickle.Binfile.read ctx2 bytes in
          let bytes2 = Pickle.Binfile.write ctx2 unit2 in
          Pid.equal unit_.Pickle.Binfile.uf_static_pid
            unit2.Pickle.Binfile.uf_static_pid
          && String.equal bytes bytes2
          &&
          match
            Pickle.Hashenv.verify ctx2
              ~name_statics:unit2.Pickle.Binfile.uf_name_statics
              unit2.Pickle.Binfile.uf_env
          with
          | Some pid -> Pid.equal pid unit_.Pickle.Binfile.uf_static_pid
          | None -> false)
        sources)

(* ------------------------------------------------------------------ *)
(* Hash invariance under trivia                                        *)
(* ------------------------------------------------------------------ *)

let trivia_gen =
  QCheck.Gen.(
    list_size (1 -- 5)
      (oneofl
         [ "(* noise *)"; "\n\n"; "   "; "(* nested (* comment *) *)"; "\t" ]))

let prop_hash_ignores_trivia =
  QCheck.Test.make ~count:50 ~name:"hash: whitespace and comments ignored"
    (QCheck.make QCheck.Gen.(pair (0 -- 1000) trivia_gen))
    (fun (seed, trivia) ->
      let source =
        Printf.sprintf
          "structure S%d = struct val x = %d fun f n = n + %d end" (seed mod 7)
          seed (seed mod 13)
      in
      (* inject trivia around the source and between every token-safe
         space *)
      let spacer = " " ^ String.concat " " trivia ^ " " in
      let noisy =
        String.concat "" trivia
        ^ String.concat spacer (String.split_on_char ' ' source)
        ^ String.concat "" trivia
      in
      let s1 = Compile.new_session () in
      let u1 = Compile.compile s1 ~name:"s.sml" ~source ~imports:[] in
      let u2 = Compile.compile s1 ~name:"s.sml" ~source:noisy ~imports:[] in
      Pid.equal u1.Pickle.Binfile.uf_static_pid u2.Pickle.Binfile.uf_static_pid)

(* ------------------------------------------------------------------ *)
(* Differential evaluation against an OCaml reference                  *)
(* ------------------------------------------------------------------ *)

(* generate an int expression together with its reference value *)
let int_exp_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then map (fun v -> (string_of_int v, v)) (0 -- 50)
         else
           frequency
             [
               (1, map (fun v -> (string_of_int v, v)) (0 -- 50));
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (Printf.sprintf "(%s + %s)" sa sb, va + vb))
                   (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (Printf.sprintf "(%s - %s)" sa sb, va - vb))
                   (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (Printf.sprintf "(%s * %s)" sa sb, va * vb))
                   (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     (* keep the divisor non-zero *)
                     ( Printf.sprintf "(%s div (%s + 1))" sa
                         (Printf.sprintf "(%s * %s)" sb sb),
                       va / ((vb * vb) + 1) ))
                   (self (n / 3)) (self (n / 3)) );
               ( 2,
                 map3
                   (fun (sa, va) (sb, vb) (sc, vc) ->
                     ( Printf.sprintf "(if %s < %s then %s else %s)" sa sb sc
                         sa,
                       if va < vb then vc else va ))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map2
                   (fun (sa, va) (sb, vb) ->
                     ( Printf.sprintf "(let val h = %s in h + %s end)" sa sb,
                       va + vb ))
                   (self (n / 2)) (self (n / 2)) );
             ])

let eval_int_unit source_exp =
  let session = Compile.new_session () in
  let unit_ =
    Compile.compile session ~name:"p.sml"
      ~source:(Printf.sprintf "structure P = struct val r = %s end" source_exp)
      ~imports:[]
  in
  let dynenv = Compile.execute unit_ Link.Linker.empty in
  let _, pid =
    List.hd unit_.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
  in
  match Pid.Map.find pid dynenv with
  | Value.Vrecord fields -> (
    match Symbol.Map.find (Symbol.intern "r") fields with
    | Value.Vint n -> n
    | _ -> failwith "not an int")
  | _ -> failwith "not a record"

let prop_differential_eval =
  QCheck.Test.make ~count:80
    ~name:"evaluation agrees with the OCaml reference"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, expected) -> eval_int_unit source = expected)

let prop_simplifier_preserves_semantics =
  QCheck.Test.make ~count:60
    ~name:"simplifier: optimized = unoptimized result"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, _) ->
      let run optimize =
        let session = Compile.new_session () in
        let unit_ =
          Compile.compile ~optimize session ~name:"p.sml"
            ~source:
              (Printf.sprintf "structure P = struct val r = %s end" source)
            ~imports:[]
        in
        let dynenv = Compile.execute unit_ Link.Linker.empty in
        let _, pid =
          List.hd unit_.Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_exports
        in
        match Pid.Map.find pid dynenv with
        | Value.Vrecord fields -> Symbol.Map.find (Symbol.intern "r") fields
        | _ -> failwith "not a record"
      in
      Value.equal (run true) (run false))

let prop_simplifier_never_grows =
  QCheck.Test.make ~count:60 ~name:"simplifier: code size never grows"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, _) ->
      let session = Compile.new_session () in
      let compile optimize =
        (Compile.compile ~optimize session ~name:"p.sml"
           ~source:(Printf.sprintf "structure P = struct val r = %s end" source)
           ~imports:[])
          .Pickle.Binfile.uf_codeunit.Link.Codeunit.cu_code
      in
      Lambda.size (compile true) <= Lambda.size (compile false))

(* ------------------------------------------------------------------ *)
(* The census simplifier against the count_var reference               *)
(* ------------------------------------------------------------------ *)

let code (unit_ : Pickle.Binfile.t) = unit_.uf_codeunit.Link.Codeunit.cu_code

(* the unsimplified code of an int_exp_gen program *)
let raw_int_code source =
  code
    (Compile.compile ~optimize:false (Compile.new_session ()) ~name:"p.sml"
       ~source:(Printf.sprintf "structure P = struct val r = %s end" source)
       ~imports:[])

(* the unsimplified code of every unit of a generated project, compiled
   in dependency order in one session *)
let raw_project_codes fs project =
  let read file = Option.get (fs.Vfs.fs_read file) in
  let graph =
    Depend.Depgraph.build
      (List.map
         (fun file -> (file, Lang.Parser.parse_unit ~file (read file)))
         (Gen.sources project))
  in
  let session = Compile.new_session () in
  let units = Hashtbl.create 16 in
  List.map
    (fun file ->
      let imports =
        List.map (Hashtbl.find units)
          (Depend.Depgraph.node graph file).Depend.Depgraph.n_deps
      in
      let unit_ =
        Compile.compile ~optimize:false session ~name:file ~source:(read file)
          ~imports
      in
      Hashtbl.replace units file unit_;
      code unit_)
    (Depend.Depgraph.topological graph)

let prop_census_matches_reference =
  QCheck.Test.make ~count:80
    ~name:"simplifier: census = count_var reference (int programs)"
    (QCheck.make ~print:fst int_exp_gen)
    (fun (source, _) -> Test_simplify.matches_reference (raw_int_code source))

let test_census_matches_reference_on_dags () =
  List.iter
    (fun seed ->
      let fs = Vfs.memory () in
      let project =
        Gen.create fs
          (Gen.Random_dag { units = 16; max_deps = 3; seed })
          (Gen.sized_profile ~lines:160)
      in
      List.iteri
        (fun i raw ->
          if not (Test_simplify.matches_reference raw) then
            Alcotest.failf "DAG seed %d, unit %d: census and reference differ"
              seed i)
        (raw_project_codes fs project))
    [ 7; 23 ]

let prop_simplify_idempotent =
  QCheck.Test.make ~count:30
    ~name:"simplifier: simplified units simplify in one pass, no rewrite"
    project_arbitrary
    (fun (topology, _) ->
      let fs, _project, sources = fresh_project topology in
      let mgr = Driver.create fs in
      let _ = Driver.build mgr ~policy:Driver.Cutoff ~sources in
      List.for_all
        (fun file ->
          Test_simplify.simplifies_to_itself (code (Driver.unit_of mgr file)))
        sources)

(* ------------------------------------------------------------------ *)
(* Corruption is always checked                                        *)
(* ------------------------------------------------------------------ *)

(* a damaged bin must either rehydrate identically or raise the checked
   [Buf.Corrupt] — never a wrong environment, never a stray exception *)
let flip_is_checked unit_ bytes pos mask =
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped pos
    (Char.chr (Char.code (Bytes.get flipped pos) lxor mask));
  let flipped = Bytes.to_string flipped in
  let ctx = Compile.context (Compile.new_session ()) in
  match Pickle.Binfile.read ctx flipped with
  | unit2 ->
    (* only acceptable if the rehydration is indistinguishable *)
    Pid.equal unit2.Pickle.Binfile.uf_static_pid
      unit_.Pickle.Binfile.uf_static_pid
    && String.equal (Pickle.Binfile.write ctx unit2) bytes
  | exception Pickle.Buf.Corrupt _ -> true
  | exception _ -> false

let test_every_byte_flip_is_checked () =
  let session = Compile.new_session () in
  let unit_ =
    Compile.compile session ~name:"u.sml"
      ~source:"structure U = struct val x = 41 fun f n = n + x end" ~imports:[]
  in
  let bytes = Pickle.Binfile.write (Compile.context session) unit_ in
  for pos = 0 to String.length bytes - 1 do
    if not (flip_is_checked unit_ bytes pos 0x01) then
      Alcotest.fail
        (Printf.sprintf "flip at byte %d/%d escaped the corruption check" pos
           (String.length bytes))
  done

let prop_random_flip_is_checked =
  QCheck.Test.make ~count:60
    ~name:"pickle: any 1-byte flip rehydrates identically or is Corrupt"
    (QCheck.make
       ~print:(fun (seed, pos, mask) ->
         Printf.sprintf "<seed %d, byte %d, mask 0x%02x>" seed pos mask)
       QCheck.Gen.(triple (0 -- 1000) (0 -- 100_000) (1 -- 255)))
    (fun (seed, pos, mask) ->
      let session = Compile.new_session () in
      let unit_ =
        Compile.compile session ~name:"u.sml"
          ~source:
            (Printf.sprintf
               "structure U%d = struct val x = %d fun f n = n * x + %d end"
               (seed mod 5) seed (seed mod 17))
          ~imports:[]
      in
      let bytes = Pickle.Binfile.write (Compile.context session) unit_ in
      flip_is_checked unit_ bytes (pos mod String.length bytes) mask)

(* ------------------------------------------------------------------ *)
(* Build idempotence                                                   *)
(* ------------------------------------------------------------------ *)

let prop_null_build_idempotent =
  QCheck.Test.make ~count:30 ~name:"null rebuild recompiles nothing"
    project_arbitrary
    (fun (topology, edits) ->
      List.for_all
        (fun policy ->
          let fs, project, sources = fresh_project topology in
          ignore fs;
          let mgr = Driver.create fs in
          let _ = Driver.build mgr ~policy ~sources in
          List.iteri
            (fun i edit ->
              Gen.edit project (victim_of project (i * 7)) edit;
              ignore (Driver.build mgr ~policy ~sources))
            edits;
          let again = Driver.build mgr ~policy ~sources in
          again.Driver.st_recompiled = [])
        [ Driver.Timestamp; Driver.Cutoff; Driver.Selective ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_policy_inclusion;
      prop_incremental_equals_scratch Driver.Cutoff "cutoff";
      prop_incremental_equals_scratch Driver.Selective "selective";
      prop_pickle_roundtrip;
      prop_random_flip_is_checked;
      prop_hash_ignores_trivia;
      prop_differential_eval;
      prop_simplifier_preserves_semantics;
      prop_simplifier_never_grows;
      prop_census_matches_reference;
      prop_simplify_idempotent;
      prop_null_build_idempotent;
    ]
  @ [
      Alcotest.test_case "every 1-byte flip in a bin is checked" `Quick
        test_every_byte_flip_is_checked;
      Alcotest.test_case "census = count_var reference on DAG units" `Quick
        test_census_matches_reference_on_dags;
    ]
