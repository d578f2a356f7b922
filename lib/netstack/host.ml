type t = { env : Netenv.t; tcp : Tcp.stack; nic : Nic.t }

let create eng ~ip ep =
  let env = Netenv.plain eng in
  let tcp = Tcp.create env ~ip () in
  let nic = Nic.create eng ~driver_load_time:0 ep in
  Tcp.attach_nic tcp nic;
  { env; tcp; nic }

let stack t = t.tcp
let spawn t name f = t.env.Netenv.spawn name f
