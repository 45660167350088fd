type queue_kind = MCS | CLH | Ticket

type t =
  [ `Default | `Fast | `Prim of Prims.cls | `Queue of queue_kind | `Adaptive ]

let cell : t Atomic.t = Atomic.make `Default

let current () = Atomic.get cell

let with_ t f =
  let prev = Atomic.exchange cell t in
  Fun.protect ~finally:(fun () -> Atomic.set cell prev) f
