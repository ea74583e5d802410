(* Tests for partial rollback (Runtime.try_call): a subtransaction fails
   alone, its effects are undone in place, and the surrounding
   transaction continues — Moss's central feature of nested
   transactions. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Escrow = Ooser_adts.Escrow

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

let open_protocol db = Protocol.open_nested ~reg:(Database.spec_registry db) ()

let test_try_call_success () =
  let db = Database.create () in
  ignore (Adt_objects.register_counter db (o "C") 0);
  let body ctx =
    match Runtime.try_call ctx (o "C") "incr" [ Value.int 5 ] with
    | Ok _ -> Runtime.call ctx (o "C") "read" []
    | Error msg -> Runtime.abort msg
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  check_bool "result" true (List.assoc 1 out.Engine.results = Value.int 5)

let test_try_call_failure_continues () =
  (* the failed withdrawal is rolled back; the transaction proceeds with
     a fallback account and commits *)
  let db = Database.create () in
  let a = Adt_objects.register_counter db (o "A") ~low:0 ~high:100 3 in
  let b = Adt_objects.register_counter db (o "B") ~low:0 ~high:100 50 in
  let body ctx =
    (match Runtime.try_call ctx (o "A") "decr" [ Value.int 10 ] with
    | Ok _ -> ()
    | Error _ ->
        (* insufficient funds on A: take it from B instead *)
        ignore (Runtime.call ctx (o "B") "decr" [ Value.int 10 ]));
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "transfer", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_int "A untouched" 3 (Escrow.value !a);
  check_int "B debited" 40 (Escrow.value !b);
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_partial_undo_of_completed_children () =
  (* the failing method did real work (a completed sub-call) before
     aborting: only that subtree is undone, earlier work survives *)
  let db = Database.create () in
  let x = Adt_objects.register_counter db (o "X") 0 in
  let y = Adt_objects.register_counter db (o "Y") 0 in
  let risky ctx _args =
    ignore (Runtime.call ctx (o "Y") "incr" [ Value.int 7 ]);
    Runtime.abort "risky failed after doing work"
  in
  Database.register db (o "Risky") ~spec:Commutativity.all_conflict
    [ ("go", Database.composite risky) ];
  let body ctx =
    ignore (Runtime.call ctx (o "X") "incr" [ Value.int 1 ]);
    (match Runtime.try_call ctx (o "Risky") "go" [] with
    | Ok _ -> Runtime.abort "should have failed"
    | Error msg -> check_bool "reason" true (msg = "risky failed after doing work"));
    ignore (Runtime.call ctx (o "X") "incr" [ Value.int 1 ]);
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_int "X kept both increments" 2 (Escrow.value !x);
  check_int "Y rolled back" 0 (Escrow.value !y)

let test_nested_try_calls () =
  let db = Database.create () in
  let x = Adt_objects.register_counter db (o "X") 0 in
  let inner ctx _args =
    ignore (Runtime.call ctx (o "X") "incr" [ Value.int 1 ]);
    Runtime.abort "inner"
  in
  let outer ctx _args =
    ignore (Runtime.call ctx (o "X") "incr" [ Value.int 10 ]);
    match Runtime.try_call ctx (o "M") "inner" [] with
    | Ok v -> v
    | Error _ -> Runtime.abort "outer too"
  in
  Database.register db (o "M") ~spec:Commutativity.all_conflict
    [ ("inner", Database.composite inner); ("outer", Database.composite outer) ];
  let body ctx =
    match Runtime.try_call ctx (o "M") "outer" [] with
    | Ok _ -> Runtime.abort "unexpected"
    | Error _ -> Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  (* inner's +1 undone by inner's failure; outer's +10 undone when outer
     aborted after catching *)
  check_int "everything unwound" 0 (Escrow.value !x)

let test_try_call_unknown_method () =
  let db = Database.create () in
  ignore (Adt_objects.register_counter db (o "C") 0);
  let body ctx =
    match Runtime.try_call ctx (o "C") "frobnicate" [] with
    | Ok _ -> Runtime.abort "unexpected"
    | Error msg ->
        check_bool "soft failure" true (String.length msg > 0);
        Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  Alcotest.(check (list int)) "committed despite bad call" [ 1 ]
    out.Engine.committed

let test_try_call_with_encyclopedia () =
  (* insert a key, then try an operation that fails; the insert must
     survive the partial rollback and the commit *)
  let db = Database.create () in
  let enc = Encyclopedia.create db in
  let boom _ctx _args = Runtime.abort "kaput" in
  Database.register db (o "Flaky") ~spec:Commutativity.all_commute
    [ ("go", Database.composite boom) ];
  let body ctx =
    Encyclopedia.insert enc ctx ~key:"keep" ~text:"kept";
    (match Runtime.try_call ctx (o "Flaky") "go" [] with
    | Ok _ -> Runtime.abort "unexpected"
    | Error _ -> ());
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  let reader ctx =
    check_bool "kept" true (Encyclopedia.search enc ctx ~key:"keep" = Some "kept");
    Value.unit
  in
  ignore (Engine.run db ~protocol:(open_protocol db) [ (2, "r", reader) ])

let suites =
  [
    ( "partial_rollback",
      [
        Alcotest.test_case "try_call success" `Quick test_try_call_success;
        Alcotest.test_case "failure continues with fallback" `Quick
          test_try_call_failure_continues;
        Alcotest.test_case "undo of completed children" `Quick
          test_partial_undo_of_completed_children;
        Alcotest.test_case "nested try_calls" `Quick test_nested_try_calls;
        Alcotest.test_case "unknown method fails softly" `Quick
          test_try_call_unknown_method;
        Alcotest.test_case "with the encyclopedia" `Quick
          test_try_call_with_encyclopedia;
      ] );
  ]
