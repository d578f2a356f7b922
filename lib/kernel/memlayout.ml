exception Out_of_memory

type t = {
  ram : int;
  base_kernel : int;  (* text + static + percpu: Ignored, constant *)
  mutable slab : int;  (* Ignored, workload-dependent *)
  mutable page_tables : int;  (* Ignored, tracks user mappings *)
  mutable page_cache : int;  (* Delayed *)
  mutable user : int;
}

(* Boot footprint of a large-memory x86-64 server kernel: text, static data,
   per-CPU areas, struct page array (64 B per 4 KiB page ~ 1.5 % of RAM),
   initial slab. *)
let base_kernel_of ram =
  let struct_pages = ram / 64 in
  let fixed = 512 * 1024 * 1024 in
  struct_pages + fixed

let create ~ram_bytes =
  if ram_bytes <= 0 then invalid_arg "Memlayout.create";
  let base = base_kernel_of ram_bytes in
  if base >= ram_bytes then invalid_arg "Memlayout.create: RAM too small";
  {
    ram = ram_bytes;
    base_kernel = base;
    slab = 0;
    page_tables = 0;
    page_cache = 0;
    user = 0;
  }

let used_bytes t =
  t.base_kernel + t.slab + t.page_tables + t.page_cache + t.user

let free_bytes t = t.ram - used_bytes t

let check_fit t extra = if extra > free_bytes t then raise Out_of_memory

(* 8 bytes of PTE per 4 KiB page. *)
let pt_overhead bytes = bytes / 512

let alloc_user t n =
  if n < 0 then invalid_arg "Memlayout.alloc_user";
  let pt = pt_overhead n in
  check_fit t (n + pt);
  t.user <- t.user + n;
  t.page_tables <- t.page_tables + pt

let free_user t n =
  let n = min n t.user in
  t.user <- t.user - n;
  t.page_tables <- max 0 (t.page_tables - pt_overhead n)

let alloc_slab t n =
  if n < 0 then invalid_arg "Memlayout.alloc_slab";
  check_fit t n;
  t.slab <- t.slab + n

let alloc_page_cache t n =
  if n < 0 then invalid_arg "Memlayout.alloc_page_cache";
  (* The page cache grows opportunistically and shrinks under pressure; cap
     it at what fits rather than failing. *)
  let n = min n (free_bytes t) in
  t.page_cache <- t.page_cache + n

let free_page_cache t n = t.page_cache <- max 0 (t.page_cache - min n t.page_cache)

type classes = { ignored : int; delayed : int; user : int }

let classify t =
  {
    ignored = t.base_kernel + t.slab + t.page_tables;
    delayed = t.page_cache + free_bytes t;
    user = t.user;
  }

let fractions t =
  let c = classify t in
  let r = float_of_int t.ram in
  (float_of_int c.ignored /. r, float_of_int c.delayed /. r, float_of_int c.user /. r)

type hit_outcome = Kernel_fatal | Recovered | App_killed

let hit_random_page t prng =
  let c = classify t in
  let x = Ftsim_sim.Prng.int prng t.ram in
  if x < c.ignored then Kernel_fatal
  else if x < c.ignored + c.delayed then Recovered
  else App_killed
