(* FIFO queue with state-dependent commutativity (Spector & Schwartz,
   §2): two dequeues never commute, two enqueues only of equal values
   (they fix the order of elements), but an enqueue commutes with a
   dequeue whenever the queue is non-empty — the dequeue takes an old
   element no matter which order they run in.

   State: the front-first element list. *)

open Ooser_core

let empty = Value.list []

let items = function
  | Value.List xs -> xs
  | _ -> invalid_arg "Fifo: malformed state"

let length st = List.length (items st)
let is_empty st = items st = []
let enqueue st v = Value.list (items st @ [ v ])
let push_front st v = Value.list (v :: items st)

let dequeue st =
  match items st with
  | x :: rest -> Some (x, Value.list rest)
  | [] -> None

(* Remove the LAST occurrence of [v], wherever it sits — the logical
   inverse of an enqueue even after later enqueues by others.  A no-op
   when [v] is gone. *)
let remove_last_of st v =
  let rec drop_first = function
    | [] -> []
    | x :: rest when Value.equal x v -> rest
    | x :: rest -> x :: drop_first rest
  in
  Value.list (List.rev (drop_first (List.rev (items st))))

let vocab = [ "enqueue"; "dequeue"; "length" ]

let spec ~current =
  Commutativity.predicate ~name:"fifo-queue" ~vocab (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "enqueue", "dequeue" | "dequeue", "enqueue" -> not (is_empty (current ()))
      | "enqueue", "enqueue" -> (
          (* equal values are indistinguishable in the queue, so the two
             orders yield identical states (the removeLastOf
             compensation handles the abort case).  Probes without
             arguments stay conservative. *)
          match (Action.args a, Action.args b) with
          | v :: _, w :: _ -> Value.equal v w
          | _ -> false)
      | "length", "length" -> true
      | _ -> false)

let some v = Value.pair (Value.str "some") v
let elems = [ [ Value.int 7 ]; [ Value.int 8 ] ]

let adt =
  {
    Adt.name = "fifo-queue";
    methods =
      [
        (* compensations: once the enclosing subtransaction committed at
           its level, the queue may have grown/shrunk under other
           transactions, so the inverse is a method invocation that
           re-acquires the lock *)
        Adt.update "enqueue" Adt.Writes_all ~vectors:elems
          ~inverse:(fun _ args _ st -> remove_last_of st (Adt.one_arg args))
          ~compensation:(fun args _ -> Some ("removeLastOf", args))
          (fun st args -> (enqueue st (Adt.one_arg args), Value.unit));
        Adt.update "dequeue" Adt.Writes_all ~vectors:[ [] ]
          ~inverse:(fun _ _ r st ->
            match r with
            | Value.Pair (Value.Str "some", v) -> push_front st v
            | _ -> st)
          ~compensation:(fun _ r ->
            match r with
            | Value.Pair (Value.Str "some", v) -> Some ("requeueFront", [ v ])
            | _ -> None)
          (fun st _ ->
            match dequeue st with
            | Some (v, st') -> (st', some v)
            | None -> (st, Value.pair (Value.str "none") Value.unit));
        Adt.update "removeLastOf" Adt.Writes_all ~vectors:elems
          ~inverse:(fun pre _ _ _ -> pre)
          (fun st args -> (remove_last_of st (Adt.one_arg args), Value.unit));
        Adt.update "requeueFront" Adt.Writes_all ~vectors:elems
          ~inverse:(fun _ _ _ st ->
            match dequeue st with Some (_, st') -> st' | None -> st)
          (fun st args -> (push_front st (Adt.one_arg args), Value.unit));
        Adt.read "length" Adt.Reads_all (fun st _ -> Value.int (length st));
      ];
    vocab;
    spec;
    observe = Fun.id;
    rebuild = (fun _ o -> o);
    states =
      (* distinct elements matter: duplicate-only queues make two
         dequeues look commutative at that state *)
      List.map
        (fun xs -> Value.list (List.map Value.int xs))
        [ []; [ 1 ]; [ 1; 2 ]; [ 1; 2; 3 ] ];
    gen_state =
      QCheck.Gen.(
        list_size (int_range 0 4) (int_range 1 3 >|= Value.int) >|= Value.list);
  }
