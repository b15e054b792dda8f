(* The lambda simplifier: specific rewrites and their guards. *)

module L = Lambda
module S = Simplify
module Symbol = Support.Symbol
module P = Statics.Prim

let v name = Symbol.intern name
let int n = L.Lint n
let app2 p a b = L.Lapp (L.Lprim p, L.Ltuple [ a; b ])

let check_simplifies msg term expected =
  Alcotest.(check string) msg (L.to_string expected) (L.to_string (S.term term))

let test_constant_folding () =
  check_simplifies "addition" (app2 P.Padd (int 2) (int 3)) (int 5);
  check_simplifies "nested arithmetic"
    (app2 P.Pmul (app2 P.Padd (int 1) (int 2)) (int 4))
    (int 12);
  check_simplifies "comparison" (app2 P.Plt (int 1) (int 2)) (L.Lcon0 1);
  check_simplifies "string concat"
    (app2 P.Pconcat (L.Lstring "a") (L.Lstring "b"))
    (L.Lstring "ab");
  check_simplifies "intToString"
    (L.Lapp (L.Lprim P.Pint_to_string, int (-3)))
    (L.Lstring "~3")

let test_division_by_zero_preserved () =
  (* 1 div 0 must raise Div at run time, so it cannot be folded *)
  let term = app2 P.Pdiv (int 1) (int 0) in
  check_simplifies "div by zero left alone" term term;
  let term2 = app2 P.Pmod (int 1) (int 0) in
  check_simplifies "mod by zero left alone" term2 term2

let test_beta_and_inline () =
  let x = v "x%b1" in
  check_simplifies "beta + fold"
    (L.Lapp (L.Lfn (x, app2 P.Padd (L.Lvar x) (int 1)), int 41))
    (int 42);
  let y = v "y%b2" in
  check_simplifies "atomic let inlined"
    (L.Llet (y, int 7, app2 P.Pmul (L.Lvar y) (L.Lvar y)))
    (int 49)

let test_dead_code () =
  let z = v "z%d1" in
  check_simplifies "dead pure binding dropped"
    (L.Llet (z, L.Ltuple [ int 1; int 2 ], int 0))
    (int 0);
  (* an impure binding is kept even if unused *)
  let w = v "w%d2" in
  let effect = L.Lapp (L.Lprim P.Pprint, L.Lstring "hi") in
  let term = L.Llet (w, effect, int 0) in
  check_simplifies "effectful binding kept" term term

let test_projections () =
  check_simplifies "select from literal tuple"
    (L.Lselect (1, L.Ltuple [ int 10; int 20; int 30 ]))
    (int 20);
  let f = Symbol.intern "field" in
  check_simplifies "field from literal record"
    (L.Lfield (f, L.Lrecord [ (f, int 5) ]))
    (int 5);
  check_simplifies "contag of literal constructor"
    (L.Lcontag (L.Lcon (3, int 0)))
    (int 3);
  check_simplifies "conarg of literal constructor"
    (L.Lconarg (L.Lcon (1, int 9)))
    (int 9)

let test_if_reduction () =
  check_simplifies "if true" (L.Lif (L.Lcon0 1, int 1, int 2)) (int 1);
  check_simplifies "if false" (L.Lif (L.Lcon0 0, int 1, int 2)) (int 2);
  check_simplifies "if with folded condition"
    (L.Lif (app2 P.Peq (int 3) (int 3), int 1, int 2))
    (int 1)

let test_handle_of_pure () =
  let x = v "x%h" in
  check_simplifies "handler around a pure body dropped"
    (L.Lhandle (int 5, x, int 0))
    (int 5)

let test_newexn_not_duplicated () =
  (* generative: a [newexn] binding must never be inlined or dropped *)
  let e = v "e%g" in
  let term =
    L.Llet
      ( e,
        L.Lnewexn (Symbol.intern "E", false),
        L.Ltuple [ L.Lvar e; L.Lvar e ] )
  in
  check_simplifies "newexn stays let-bound" term term

let test_fix_garbage_collection () =
  let f = v "f%f1" and g = v "g%f2" and x = v "x%f3" and y = v "y%f4" in
  let fix =
    L.Lfix
      ( [ (f, x, L.Lapp (L.Lvar f, L.Lvar x)); (g, y, L.Lvar y) ],
        L.Lapp (L.Lvar f, int 1) )
  in
  (* g is dead, f is live *)
  match S.term fix with
  | L.Lfix ([ (kept, _, _) ], _) ->
    Alcotest.(check string) "f kept" (Symbol.name f) (Symbol.name kept)
  | other -> Alcotest.fail ("unexpected: " ^ L.to_string other)

let test_stats () =
  let x = v "x%s" in
  let term = L.Lapp (L.Lfn (x, app2 P.Padd (L.Lvar x) (int 1)), int 1) in
  let _, stats = S.term_with_stats term in
  Alcotest.(check bool) "shrank" true (stats.S.after_nodes < stats.S.before_nodes);
  Alcotest.(check int) "final size" 1 stats.S.after_nodes

let test_shared_siblings_counted () =
  (* inlining [x := y] puts one physical [Lvar y] in both tuple slots;
     when folding [g (1, 2)] later unblocks the selection, the dropped
     [y] must still leave the census, or [y] looks used twice and its
     binding stays *)
  let y = v "y%c1" and g = v "g%c2" and x = v "x%c3" in
  let pair = L.Ltuple [ int 1; int 2 ] in
  check_simplifies "sibling dropped by position"
    (L.Llet
       ( y,
         pair,
         L.Llet
           ( g,
             L.Lprim P.Padd,
             L.Llet
               ( x,
                 L.Lvar y,
                 L.Lselect
                   ( 0,
                     L.Ltuple
                       [
                         L.Lvar x;
                         L.Lvar x;
                         L.Lapp (L.Lvar g, L.Ltuple [ int 1; int 2 ]);
                       ] ) ) ) ))
    pair

(* ------------------------------------------------------------------ *)
(* The census simplifier against the count_var reference               *)
(* ------------------------------------------------------------------ *)

(* A random well-scoped term with unique binders, the simplifier's
   precondition.  Variables are the commonest leaves, and literal
   tuples, records, constructors and conditions are common, so dead
   bindings, dropped siblings and untaken arms that mention variables
   bound further out turn up often.  Not well typed: both simplifiers
   only need scoping. *)
let gen_term : L.t QCheck.Gen.t =
 fun st ->
  let rand n = Random.State.int st n in
  let serial = ref 0 in
  let fresh () =
    incr serial;
    v (Printf.sprintf "t%%%d" !serial)
  in
  let field () = v (List.nth [ "a"; "b"; "c" ] (rand 3)) in
  let leaf scope =
    match rand 10 with
    | n when n < 6 && scope <> [] ->
      L.Lvar (List.nth scope (rand (List.length scope)))
    | 0 | 1 | 2 | 6 -> int (rand 5)
    | 3 | 7 -> L.Lcon0 (rand 2)
    | 4 | 8 -> L.Lprim P.Padd
    | _ -> L.Lnewexn (Symbol.intern "E", false)
  in
  let rec term depth scope =
    let sub () = term (depth - 1) scope in
    let some n = List.init (1 + rand n) (fun _ -> sub ()) in
    if depth <= 0 || rand 5 = 0 then leaf scope
    else
      match rand 15 with
      | 0 ->
        let x = fresh () in
        L.Lfn (x, term (depth - 1) (x :: scope))
      | 1 -> L.Lapp (sub (), sub ())
      | 2 | 3 | 4 ->
        let x = fresh () in
        let e = sub () in
        L.Llet (x, e, term (depth - 1) (x :: scope))
      | 5 ->
        let fs = List.init (1 + rand 3) (fun _ -> fresh ()) in
        let binds =
          List.map
            (fun f ->
              let x = fresh () in
              (f, x, term (depth - 1) ((x :: fs) @ scope)))
            fs
        in
        L.Lfix (binds, term (depth - 1) (fs @ scope))
      | 6 -> L.Ltuple (some 3)
      | 7 ->
        let parts = some 3 in
        L.Lselect (rand (List.length parts + 1), L.Ltuple parts)
      | 8 ->
        let fields = List.map (fun e -> (field (), e)) (some 3) in
        L.Lfield (field (), if rand 4 = 0 then sub () else L.Lrecord fields)
      | 9 -> (
        let con =
          if rand 3 = 0 then L.Lcon0 (rand 2) else L.Lcon (rand 2, sub ())
        in
        match rand 3 with
        | 0 -> L.Lcontag con
        | 1 -> L.Lconarg con
        | _ -> con)
      | 10 | 11 ->
        let cond =
          match rand 3 with
          | 0 -> L.Lcon0 (rand 2)
          | 1 -> app2 P.Plt (int (rand 3)) (int (rand 3))
          | _ -> sub ()
        in
        L.Lif (cond, sub (), sub ())
      | 12 ->
        let x = fresh () in
        let e = if rand 2 = 0 then L.Ltuple (some 2) else sub () in
        L.Lhandle (e, x, term (depth - 1) (x :: scope))
      | 13 -> L.Lraise (sub ())
      | _ -> app2 P.Padd (sub ()) (sub ())
  in
  term 7 []

(* same output term, passes and sizes as the count_var simplifier *)
let matches_reference term =
  let out, stats = S.term_with_stats term in
  let ref_out, ref_stats = Simplify_ref.term_with_stats term in
  String.equal (L.to_string out) (L.to_string ref_out) && stats = ref_stats

let prop_census_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"census = count_var reference on random terms"
    (QCheck.make ~print:L.to_string gen_term)
    matches_reference

(* a second simplification of simplified code finds nothing to rewrite:
   a census that drifted high would have blocked a rewrite the first
   time, and this one would find it *)
let simplifies_to_itself term =
  let _, stats = S.term_with_stats term in
  stats.S.passes = 1 && stats.after_nodes = stats.before_nodes

(* a first simplification cut off by the pass bound may leave rewrites *)
let prop_idempotent =
  QCheck.Test.make ~count:1000
    ~name:"simplified random terms simplify to themselves"
    (QCheck.make ~print:L.to_string gen_term)
    (fun term ->
      let out, stats = S.term_with_stats term in
      QCheck.assume (stats.S.passes < 4);
      simplifies_to_itself out)

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "division by zero preserved" `Quick
      test_division_by_zero_preserved;
    Alcotest.test_case "beta and inlining" `Quick test_beta_and_inline;
    Alcotest.test_case "dead code" `Quick test_dead_code;
    Alcotest.test_case "projections" `Quick test_projections;
    Alcotest.test_case "if reduction" `Quick test_if_reduction;
    Alcotest.test_case "handle of pure body" `Quick test_handle_of_pure;
    Alcotest.test_case "generative newexn preserved" `Quick
      test_newexn_not_duplicated;
    Alcotest.test_case "dead fix bindings dropped" `Quick
      test_fix_garbage_collection;
    Alcotest.test_case "statistics" `Quick test_stats;
    Alcotest.test_case "shared siblings counted by position" `Quick
      test_shared_siblings_counted;
    QCheck_alcotest.to_alcotest prop_census_matches_reference;
    QCheck_alcotest.to_alcotest prop_idempotent;
  ]
