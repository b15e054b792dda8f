(* The benchmark's input: a generated project on an in-memory file
   system, plus the compiler-independent oracle that checks what a build
   and a run of it produce. *)

module Gen = Workload.Gen

(* 64 units of ~160 lines each (~10.5k lines) with datatypes,
   signatures and functors: the shape of the ROADMAP's baseline
   profile. *)
let units = 64
let max_deps = 3
let lines_per_unit = 160

type t = { fs : Vfs.fs; gen : Gen.t; sources : string list }

let create ~seed =
  let fs = Vfs.memory () in
  let gen =
    Gen.create fs
      (Gen.Random_dag { units; max_deps; seed })
      (Gen.sized_profile ~lines:lines_per_unit)
  in
  { fs; gen; sources = Gen.sources gen }

let read fs path =
  match fs.Vfs.fs_read path with
  | Some text -> text
  | None -> failwith ("perfbench: missing file " ^ path)

(* A fresh file system holding the project's current sources and no
   bins: the input of a from-clean build. *)
let clean_copy p =
  let fs = Vfs.memory () in
  List.iter (fun file -> fs.Vfs.fs_write file (read p.fs file)) p.sources;
  fs

(* Every unit's bin bytes, in source order ([None] = no bin). *)
let bins fs sources =
  List.map (fun file -> (file, fs.Vfs.fs_read (file ^ ".bin"))) sources

let bin_bytes bins =
  List.fold_left
    (fun acc (_, b) -> acc + Option.fold ~none:0 ~some:String.length b)
    0 bins

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

(* What the oracle reads from a unit's source text, without the
   compiler: the structure it defines and its [val seed = ...] line,
   which the generator writes as [Uaaa.seed + ... + N] (or just [N]).
   The structures that line names are exactly the unit's imports. *)
type decl = { d_name : string; d_deps : string list; d_const : int }

let after prefix line =
  let line = String.trim line in
  let n = String.length prefix in
  if String.length line >= n && String.equal (String.sub line 0 n) prefix then
    Some (String.sub line n (String.length line - n))
  else None

let parse_decl file text =
  let lines = String.split_on_char '\n' text in
  let first f =
    match List.find_map f lines with
    | Some x -> x
    | None -> failwith ("perfbench: cannot read the oracle line of " ^ file)
  in
  let d_name =
    first (fun l ->
        Option.map
          (fun rest -> List.hd (String.split_on_char ' ' rest))
          (after "structure " l))
  in
  let terms =
    first (fun l -> after "val seed = " l)
    |> String.split_on_char '+' |> List.map String.trim
  in
  let deps, consts =
    List.partition_map
      (fun term ->
        match String.split_on_char '.' term with
        | [ s; "seed" ] -> Left s
        | _ -> Right (int_of_string term))
      terms
  in
  { d_name; d_deps = deps; d_const = List.fold_left ( + ) 0 consts }

let decls p =
  List.map (fun file -> (file, parse_decl file (read p.fs file))) p.sources

(* The value every unit's [seed] must have at run time: the sum of its
   imports' seeds plus its constant, with the same wrap-around integer
   arithmetic as the evaluator. *)
let expected_seeds decls =
  let by_name = Hashtbl.create 64 in
  List.iter (fun (_, d) -> Hashtbl.replace by_name d.d_name d) decls;
  let memo = Hashtbl.create 64 in
  let rec value name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
      let d = Hashtbl.find by_name name in
      let v = List.fold_left (fun acc dep -> acc + value dep) d.d_const d.d_deps in
      Hashtbl.replace memo name v;
      v
  in
  List.map (fun (file, d) -> (file, d.d_name, value d.d_name)) decls

(* The files whose unit imports [file]'s structure. *)
let importers decls file =
  let name = (List.assoc file decls).d_name in
  List.filter_map
    (fun (f, d) -> if List.mem name d.d_deps then Some f else None)
    decls

(* The exported [seed] of [name] after a run, read through the linker:
   the unit's export record holds one structure value per top-level
   structure. *)
let observed_seed driver dynenv file name =
  let unit_ = Irm.Driver.unit_of driver file in
  let exports =
    Link.Linker.export_values unit_.Pickle.Binfile.uf_codeunit dynenv
  in
  match
    List.find_opt
      (fun (sym, _) -> String.equal (Support.Symbol.name sym) name)
      exports
  with
  | Some (_, Dynamics.Value.Vrecord fields) -> (
    match Support.Symbol.Map.find_opt (Support.Symbol.intern "seed") fields with
    | Some (Dynamics.Value.Vint n) -> Some n
    | _ -> None)
  | _ -> None

(* The units whose run-time seed differs from the oracle's. *)
let wrong_seeds decls driver dynenv =
  List.filter_map
    (fun (file, name, want) ->
      match observed_seed driver dynenv file name with
      | Some got when got = want -> None
      | Some got -> Some (Printf.sprintf "%s: seed %d, expected %d" file got want)
      | None -> Some (Printf.sprintf "%s: no seed exported" file))
    (expected_seeds decls)
