(* The traced run's replay: compile every unit a real build recompiled
   once more, in this process, through the compiler's public entry
   points ([Sepcomp.Compile.load]/[compile]/[save]), the way
   [Irm.Wire.execute] runs a compile job: a fresh session rehydrates the
   unit's import closure from its bins, then compiles and pickles it.

   The layer times do not come from here: they are the real builds' own
   per-unit phase records.  The replay exists for what the program does
   not report itself:
   - a fidelity check: the replayed bin must be byte-identical to the
     one the real build wrote ([b_mismatches] names the units where it
     is not, and the layer numbers of such a build mean nothing);
   - the lambda term's size before and after simplification;
   - the compiler's [Obs.Metrics] counters (rehydrations, pickle bytes,
     simplifier rewrites), which on [Workers] accrue in the child
     processes, out of this process's sight. *)

type build = {
  b_nodes_in : int;  (** lambda nodes before simplification *)
  b_nodes_out : int;  (** and after *)
  b_distinct : int;  (** units whose interface a compile needed *)
  b_counters : (string * int) list;
      (** [Obs.Metrics] deltas around the replayed compiles *)
  b_mismatches : string list;  (** units whose replayed bin differs *)
}

let counters_delta before after =
  List.map
    (fun (name, v) ->
      (name, v - Option.value ~default:0 (List.assoc_opt name before)))
    after

let bin fs file = Project.read fs (file ^ ".bin")

let code (unit_ : Pickle.Binfile.t) = unit_.uf_codeunit.Link.Codeunit.cu_code

(* Replay the compile jobs of one build: every unit in [recompiled], in
   the dependency order of [sources].  The bins on [fs] are the ones the
   real build left, which are also the closure bytes its jobs were
   given: a unit compiles at most once per build, after all its
   imports. *)
let replay_build ~fs ~sources ~recompiled =
  let graph =
    Depend.Depgraph.build
      (List.map
         (fun file -> (file, Lang.Parser.parse_unit ~file (Project.read fs file)))
         sources)
  in
  let before = Obs.Metrics.snapshot () in
  let nodes_in = ref 0 and nodes_out = ref 0 and mismatches = ref [] in
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun file ->
      if List.mem file recompiled then begin
        let session = Sepcomp.Compile.new_session () in
        let closure = Depend.Depgraph.closure graph file in
        List.iter (fun dep -> Hashtbl.replace distinct dep ()) (file :: closure);
        let loaded =
          List.map
            (fun dep -> (dep, Sepcomp.Compile.load session (bin fs dep)))
            closure
        in
        let imports =
          List.map
            (fun dep -> List.assoc dep loaded)
            (Depend.Depgraph.node graph file).Depend.Depgraph.n_deps
        in
        let source = Project.read fs file in
        let unit_ = Sepcomp.Compile.compile session ~name:file ~source ~imports in
        if not (String.equal (Sepcomp.Compile.save session unit_) (bin fs file))
        then mismatches := file :: !mismatches;
        (* the unsimplified term, from a second compile in the same
           session; it runs no simplifier and pickles nothing, so it
           moves none of the counters read here *)
        let raw =
          Sepcomp.Compile.compile ~optimize:false session ~name:file ~source
            ~imports
        in
        nodes_in := !nodes_in + Lambda.size (code raw);
        nodes_out := !nodes_out + Lambda.size (code unit_)
      end)
    (Depend.Depgraph.topological graph);
  {
    b_nodes_in = !nodes_in;
    b_nodes_out = !nodes_out;
    b_distinct = Hashtbl.length distinct;
    b_counters = counters_delta before (Obs.Metrics.snapshot ());
    b_mismatches = List.rev !mismatches;
  }
