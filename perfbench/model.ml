(* The correctness oracle: every committed version of every key, built
   from the generated inputs and the commit timestamps the engine
   returned.  AS OF answers, history walks and post-recovery state are
   checked against it, always outside the timed regions. *)

module Ts = Imdb_clock.Timestamp

(* Versions of one key in commit order (commit timestamps strictly
   increase, so the arrays are sorted by timestamp). *)
type versions = {
  mutable ts : Ts.t array;
  mutable pl : string array;
  mutable n : int;
}

type t = { keys : (string, versions) Hashtbl.t; mutable user_bytes : int }

let create () = { keys = Hashtbl.create 4096; user_bytes = 0 }

let add m ~key ~ts ~payload =
  let v =
    match Hashtbl.find_opt m.keys key with
    | Some v -> v
    | None ->
        let v = { ts = Array.make 8 Ts.zero; pl = Array.make 8 ""; n = 0 } in
        Hashtbl.add m.keys key v;
        v
  in
  if v.n > 0 && Ts.compare v.ts.(v.n - 1) ts >= 0 then
    failwith "model: commit timestamps of one key must increase";
  if v.n = Array.length v.ts then begin
    let grow a fill =
      let b = Array.make (2 * v.n) fill in
      Array.blit a 0 b 0 v.n;
      b
    in
    v.ts <- grow v.ts Ts.zero;
    v.pl <- grow v.pl ""
  end;
  v.ts.(v.n) <- ts;
  v.pl.(v.n) <- payload;
  v.n <- v.n + 1;
  m.user_bytes <- m.user_bytes + String.length key + String.length payload

(* Index of the newest version committed at or before [ts], or -1. *)
let index_at v ts =
  let lo = ref 0 and hi = ref (v.n - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Ts.compare v.ts.(mid) ts <= 0 then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let get_at m ~key ~ts =
  match Hashtbl.find_opt m.keys key with
  | None -> None
  | Some v ->
      let i = index_at v ts in
      if i < 0 then None else Some v.pl.(i)

(* The whole table as of [ts], in key order. *)
let scan_at m ~ts =
  Hashtbl.fold
    (fun key v acc ->
      let i = index_at v ts in
      if i < 0 then acc else (key, v.pl.(i)) :: acc)
    m.keys []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Every version of [key], newest first, as [history] returns it. *)
let history m ~key =
  match Hashtbl.find_opt m.keys key with
  | None -> []
  | Some v -> List.init v.n (fun i -> (v.ts.(v.n - 1 - i), v.pl.(v.n - 1 - i)))

(* Payloads of [key] committed in the closed window [lo, hi] plus the one
   current at [lo]: the answers a current read that ran between the two
   instants may legally return. *)
let window m ~key ~lo ~hi =
  match Hashtbl.find_opt m.keys key with
  | None -> []
  | Some v ->
      let first = max 0 (index_at v lo) and last = index_at v hi in
      if last < 0 then [] else List.init (last - first + 1) (fun i -> v.pl.(first + i))

let versions m = Hashtbl.fold (fun _ v acc -> acc + v.n) m.keys 0
