module History = Sbft_spec.History
module Store = Sbft_kv.Store

type kind = Stale | Future | Unwritten

let kind_name = function Stale -> "stale" | Future -> "future" | Unwritten -> "unwritten"

type 'ts write = { id : int; value : int; inv : int; resp : int option; ts : 'ts option }

let writes h =
  List.filter_map
    (function
      | History.Write { id; value; inv; resp; ts; _ } -> Some { id; value; inv; resp; ts }
      | History.Read _ -> None)
    (History.ops h)

let completed_before t (w : _ write) = match w.resp with Some r -> r < t | None -> false

(* Written from the definition, deliberately naive: every read against
   every write, so nothing is shared with the program's sweep. *)
let realtime_violations ~after h =
  let ws = writes h in
  List.filter_map
    (function
      | History.Read { id; inv; resp = Some resp; outcome = History.Value v; _ } when inv >= after
        -> (
          match List.find_opt (fun w -> w.value = v) ws with
          | None -> Some (id, Unwritten)
          | Some w when w.inv > resp -> Some (id, Future)
          | Some w -> (
              match w.resp with
              | Some w_resp
                when w_resp < inv
                     && List.exists
                          (fun w' -> w'.id <> w.id && w'.inv > w_resp && completed_before inv w')
                          ws ->
                  Some (id, Stale)
              | _ -> None))
      | _ -> None)
    (History.ops h)

let reversed_isolated_pairs ~after ~ts_prec h =
  let done_ =
    List.filter_map
      (fun w -> match w.resp with Some r when w.inv >= after -> Some (w, r) | _ -> None)
      (writes h)
  in
  let isolated (a, _) (b, b_resp) =
    not
      (List.exists
         (fun (c, c_resp) -> c.id <> a.id && c.id <> b.id && c.inv <= b_resp && c_resp >= a.inv)
         done_)
  in
  List.concat_map
    (fun ((a, a_resp) as pa) ->
      List.filter_map
        (fun ((b, _) as pb) ->
          match a.ts, b.ts with
          | Some ta, Some tb
            when a_resp < b.inv && ts_prec tb ta && (not (ts_prec ta tb)) && isolated pa pb ->
              Some (a.id, b.id)
          | _ -> None)
        done_)
    done_
  |> List.sort compare

let within_5sd ~mean ~var x = Float.abs (x -. mean) <= 5.0 *. sqrt var

let poisson_count_ok ~rate ~duration count =
  let mean = rate *. float_of_int duration in
  within_5sd ~mean ~var:mean (float_of_int count)

let share_ok ~p ~n k =
  let n = float_of_int n in
  within_5sd ~mean:(n *. p) ~var:(n *. p *. (1.0 -. p)) (float_of_int k)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let probe store ~keys ~write ~expect =
  let clients = Store.client_count store in
  if clients < 2 then invalid_arg "Checks.probe: needs two store clients";
  let good = ref 0 in
  Array.iteri
    (fun i key ->
      Store.put store ~client:(i mod clients) ~key ~value:(write i)
        ~k:(fun () ->
          Store.get store ~client:((i + 1) mod clients) ~key
            ~k:(fun got -> if got = History.Value (expect i) then incr good)
            ())
        ())
    keys;
  Store.quiesce store;
  Array.length keys - !good
