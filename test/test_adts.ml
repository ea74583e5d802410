(* Unit and property tests for the semantic abstract data types. *)

open Ooser_core
open Ooser_adts

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let act ?(top = 1) ?(args = []) meth =
  Action.v
    ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
    ~obj:(Obj_id.v "X") ~meth ~args
    ~process:(Ids.Process_id.main top)
    ()

(* Run one method's pure transition: [(state', result)]. *)
let run adt name st args =
  match Adt.find_meth adt name with
  | Some m -> m.Adt.run st args
  | None -> Alcotest.failf "%s has no method %s" adt.Adt.name name

let step adt name args st = fst (run adt name st args)
let result adt name args st = snd (run adt name st args)
let int_result adt name st = Value.to_int_exn (result adt name [] st)

let test_escrow_basic () =
  let e = Escrow.adt in
  let c = Escrow.init ~low:0 ~high:10 5 in
  let c = step e "incr" [ Value.int 3 ] c in
  check_int "after incr" 8 (Escrow.value c);
  let c = step e "decr" [ Value.int 8 ] c in
  check_int "after decr" 0 (Escrow.value c);
  check_int "read" 0 (int_result e "read" c);
  check_bool "bounds violation" true
    (match step e "decr" [ Value.int 1 ] c with
    | exception Adt.Rejected _ -> true
    | _ -> false);
  check_bool "negative amount" true
    (match step e "incr" [ Value.int (-1) ] c with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_escrow_commutativity () =
  let st = ref (Escrow.init ~low:0 ~high:10 5) in
  let spec = Escrow.adt.Adt.spec ~current:(fun () -> !st) in
  let incr top n = act ~top ~args:[ Value.int n ] "incr" in
  let decr top n = act ~top ~args:[ Value.int n ] "decr" in
  let read top = act ~top "read" in
  check_bool "small updates commute" true
    (Commutativity.test spec (incr 1 2) (decr 2 3));
  (* incr 4 and incr 4 from value 5 with high 10: each alone fits, both
     together overflow: must conflict *)
  check_bool "jointly overflowing updates conflict" false
    (Commutativity.test spec (incr 1 4) (incr 2 4));
  check_bool "read conflicts with update" false
    (Commutativity.test spec (read 1) (incr 2 1));
  check_bool "reads commute" true (Commutativity.test spec (read 1) (read 2));
  (* state-dependence: after draining the counter, decrements conflict *)
  st := step Escrow.adt "decr" [ Value.int 5 ] !st;
  check_bool "empty counter: decrements conflict" false
    (Commutativity.test spec (decr 1 1) (decr 2 1))

let test_kv_set () =
  let k = Kv_set.adt and a = [ Value.str "a" ] in
  let s =
    Kv_set.empty |> step k "insert" a |> step k "insert" a
    |> step k "insert" [ Value.str "b" ]
  in
  check_int "cardinal dedups" 2 (int_result k "cardinal" s);
  check_int "insertion count tracked" 2 (Kv_set.count s (Value.str "a"));
  let s = step k "decrCount" a s in
  check_bool "still member after one decrement" true
    (result k "contains" a s = Value.bool true);
  let s = step k "decrCount" a s in
  check_bool "gone after both decrements" false (Kv_set.mem s (Value.str "a"));
  let s = step k "insert" a s in
  check_bool "remove reports dropped count" true
    (result k "remove" a s = Value.pair (Value.str "dropped") (Value.int 1));
  check_bool "removed" false (Kv_set.mem (step k "remove" a s) (Value.str "a"));
  let spec = Kv_set.spec in
  let ins k top = act ~top ~args:[ Value.str k ] "insert" in
  let con k top = act ~top ~args:[ Value.str k ] "contains" in
  let rem k top = act ~top ~args:[ Value.str k ] "remove" in
  check_bool "different keys commute" true
    (Commutativity.test spec (ins "x" 1) (rem "y" 2));
  check_bool "same-key inserts commute (idempotent)" true
    (Commutativity.test spec (ins "x" 1) (ins "x" 2));
  check_bool "insert/contains conflict" false
    (Commutativity.test spec (ins "x" 1) (con "x" 2));
  check_bool "insert/remove conflict" false
    (Commutativity.test spec (ins "x" 1) (rem "x" 2))

let test_fifo_queue () =
  let f = Fifo.adt in
  check_bool "empty" true (Fifo.is_empty Fifo.empty);
  let q =
    List.fold_left
      (fun q v -> step f "enqueue" [ Value.int v ] q)
      Fifo.empty [ 1; 2; 3 ]
  in
  check_int "length" 3 (int_result f "length" q);
  let some v = Value.pair (Value.str "some") (Value.int v) in
  let q, r = run f "dequeue" q [] in
  check_bool "fifo order" true (r = some 1);
  check_bool "peek" true (List.hd (Fifo.items q) = Value.int 2);
  let q, r = run f "dequeue" q [] in
  check_bool "next" true (r = some 2);
  let q = step f "dequeue" [] q in
  check_bool "drained" true
    (result f "dequeue" [] q = Value.pair (Value.str "none") Value.unit)

let test_fifo_commutativity () =
  let q = ref Fifo.empty in
  let spec = Fifo.adt.Adt.spec ~current:(fun () -> !q) in
  let enq top = act ~top "enqueue" in
  let deq top = act ~top "dequeue" in
  check_bool "enq/deq conflict on empty queue" false
    (Commutativity.test spec (enq 1) (deq 2));
  q := step Fifo.adt "enqueue" [ Value.int 1 ] !q;
  check_bool "enq/deq commute when non-empty" true
    (Commutativity.test spec (enq 1) (deq 2));
  check_bool "enq/enq never commute" false
    (Commutativity.test spec (enq 1) (enq 2));
  check_bool "deq/deq never commute" false
    (Commutativity.test spec (deq 1) (deq 2))

let test_directory () =
  let d = Directory.adt and a = Value.str "a" in
  let s =
    Directory.empty
    |> step d "bind" [ a; Value.int 1 ]
    |> step d "bind" [ a; Value.int 2 ]
  in
  check_int "rebind replaces" 1 (List.length (Directory.names s));
  check_bool "lookup" true
    (result d "lookup" [ a ] s = Value.pair (Value.str "some") (Value.int 2));
  let s = step d "unbind" [ a ] s in
  check_bool "unbound" true (Directory.lookup s a = None);
  let spec = Directory.spec in
  let bind k top = act ~top ~args:[ Value.str k ] "bind" in
  let lookup k top = act ~top ~args:[ Value.str k ] "lookup" in
  let list top = act ~top "list" in
  check_bool "different keys commute" true
    (Commutativity.test spec (bind "x" 1) (bind "y" 2));
  check_bool "same key bind/lookup conflict" false
    (Commutativity.test spec (bind "x" 1) (lookup "x" 2));
  check_bool "list conflicts with bind (phantom)" false
    (Commutativity.test spec (list 1) (bind "x" 2));
  check_bool "list commutes with lookup" true
    (Commutativity.test spec (list 1) (lookup "x" 2))

(* Property: the single undo definition is exact — for every ADT, every
   method and argument vector, and states from the ADT's generator, a
   successful call followed by its derived inverse gives back the
   original encoded state.  (Calls the state rejects, such as an escrow
   update out of bounds, are skipped: they never applied.)  The state
   also rebuilds from its observed part, which is all an occ version
   keeps. *)
let prop_undo_restores =
  let adts =
    [ Escrow.adt; Kv_set.adt; Fifo.adt; Directory.adt; Register.adt; Roster.adt ]
  in
  List.map
    (fun (adt : Adt.t) ->
      QCheck.Test.make ~count:200
        ~name:("undo restores the pre-state: " ^ adt.Adt.name)
        (QCheck.make ~print:Value.to_string adt.Adt.gen_state)
        (fun pre ->
          Value.equal (adt.Adt.rebuild pre (adt.Adt.observe pre)) pre
          && List.for_all
            (fun (m : Adt.meth) ->
              List.for_all
                (fun args ->
                  match m.Adt.run pre args with
                  | exception Adt.Rejected _ -> true
                  | post, r -> Value.equal (m.Adt.inverse pre args r post) pre)
                m.Adt.vectors)
            adt.Adt.methods))
    adts

(* Property: escrow commutativity is sound — whenever the spec says two
   updates commute, applying them in either order succeeds and ends in
   the same state. *)
let prop_escrow_sound =
  let open QCheck2 in
  let gen =
    Gen.(
      tup4 (int_range 0 20) (* initial *)
        (int_range (-10) 10) (* delta a *)
        (int_range (-10) 10) (* delta b *)
        (int_range 10 30) (* high bound *))
  in
  QCheck2.Test.make ~name:"escrow commute implies order-insensitive success"
    ~count:500 gen (fun (init, da, db, high) ->
      let init = min init high in
      let init = Escrow.init ~low:0 ~high init in
      let spec = Escrow.adt.Adt.spec ~current:(fun () -> init) in
      let act_of top d =
        act ~top
          ~args:[ Value.int (abs d) ]
          (if d >= 0 then "incr" else "decr")
      in
      let apply c d =
        step Escrow.adt
          (if d >= 0 then "incr" else "decr")
          [ Value.int (abs d) ] c
      in
      if Commutativity.test spec (act_of 1 da) (act_of 2 db) then (
        let final d d' =
          match apply (apply init d) d' with
          | c -> Some (Escrow.value c)
          | exception Adt.Rejected _ -> None
        in
        let r1 = final da db and r2 = final db da in
        r1 <> None && r1 = r2)
      else true)

let suites =
  [
    ( "adts",
      [
        Alcotest.test_case "escrow basics" `Quick test_escrow_basic;
        Alcotest.test_case "escrow commutativity" `Quick test_escrow_commutativity;
        Alcotest.test_case "kv set" `Quick test_kv_set;
        Alcotest.test_case "fifo queue" `Quick test_fifo_queue;
        Alcotest.test_case "fifo commutativity" `Quick test_fifo_commutativity;
        Alcotest.test_case "directory" `Quick test_directory;
        QCheck_alcotest.to_alcotest prop_escrow_sound;
      ]
      @ List.map (fun t -> QCheck_alcotest.to_alcotest t) prop_undo_restores );
  ]
