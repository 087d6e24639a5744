(** Zephyr RTOS syscall encoding.

    Zephyr's build system parses every __syscall declaration and emits an
    ISA-portable encoding; WAZI consumes that encoding to auto-generate
    passthrough handlers (paper §5.1). This module is our stand-in for
    that generated encoding: each entry carries the subsystem group, the
    argument arity, and whether our Zephyr simulator implements the
    target (the rest become trap-on-call stubs, as in WAZI).

    Counts per subsystem approximate the real tree (~520 syscalls total),
    which is what the §2 scoping argument needs: most target
    domain-specific subsystems a kernel interface need not support. *)

type entry = {
  name : string;
  group : string;
  arity : int;
  implemented : bool;
}

let z ?(impl = false) name group arity = { name; group; arity; implemented = impl }

(* Core kernel calls implemented by our simulator. *)
let implemented_calls =
  [
    z ~impl:true "k_thread_create" "kernel" 6;
    z ~impl:true "k_thread_join" "kernel" 2;
    z ~impl:true "k_thread_abort" "kernel" 1;
    z ~impl:true "k_thread_priority_get" "kernel" 1;
    z ~impl:true "k_thread_priority_set" "kernel" 2;
    z ~impl:true "k_thread_name_set" "kernel" 2;
    z ~impl:true "k_sleep" "kernel" 1;
    z ~impl:true "k_usleep" "kernel" 1;
    z ~impl:true "k_yield" "kernel" 0;
    z ~impl:true "k_uptime_ticks" "kernel" 0;
    z ~impl:true "k_sem_init" "kernel" 3;
    z ~impl:true "k_sem_take" "kernel" 2;
    z ~impl:true "k_sem_give" "kernel" 1;
    z ~impl:true "k_sem_count_get" "kernel" 1;
    z ~impl:true "k_mutex_init" "kernel" 1;
    z ~impl:true "k_mutex_lock" "kernel" 2;
    z ~impl:true "k_mutex_unlock" "kernel" 1;
    z ~impl:true "k_queue_init" "kernel" 1;
    z ~impl:true "k_queue_append" "kernel" 2;
    z ~impl:true "k_queue_get" "kernel" 2;
    z ~impl:true "k_msgq_init" "kernel" 4;
    z ~impl:true "k_msgq_put" "kernel" 3;
    z ~impl:true "k_msgq_get" "kernel" 3;
    z ~impl:true "k_timer_init" "kernel" 3;
    z ~impl:true "k_timer_start" "kernel" 3;
    z ~impl:true "k_timer_stop" "kernel" 1;
    z ~impl:true "k_timer_status_get" "kernel" 1;
    z ~impl:true "k_malloc" "kernel" 1;
    z ~impl:true "k_free" "kernel" 1;
    z ~impl:true "device_get_binding" "device" 1;
    z ~impl:true "device_is_ready" "device" 1;
    z ~impl:true "gpio_pin_configure" "gpio" 3;
    z ~impl:true "gpio_pin_set" "gpio" 3;
    z ~impl:true "gpio_pin_get" "gpio" 2;
    z ~impl:true "gpio_pin_toggle" "gpio" 2;
    z ~impl:true "uart_poll_out" "uart" 2;
    z ~impl:true "uart_poll_in" "uart" 2;
    z ~impl:true "fs_open" "fs" 3;
    z ~impl:true "fs_close" "fs" 1;
    z ~impl:true "fs_read" "fs" 3;
    z ~impl:true "fs_write" "fs" 3;
    z ~impl:true "fs_seek" "fs" 3;
    z ~impl:true "fs_unlink" "fs" 1;
    z ~impl:true "fs_mkdir" "fs" 1;
    z ~impl:true "fs_stat" "fs" 2;
    z ~impl:true "k_poll" "kernel" 3;
    z ~impl:true "k_stack_push" "kernel" 2;
    z ~impl:true "k_stack_pop" "kernel" 3;
    z ~impl:true "sys_rand_get" "misc" 2;
    z ~impl:true "k_object_alloc" "kernel" 1;
  ]

(* Domain-specific subsystems: present in Zephyr's interface, stubbed in
   WAZI (trap with a clear message if called) — the paper's point that a
   kernel interface only needs the core fraction. *)
let stub_groups : (string * int) list =
  [
    ("net", 80); ("bluetooth", 45); ("sensor", 30); ("i2c", 18); ("spi", 12);
    ("adc", 10); ("dac", 6); ("pwm", 8); ("can", 22); ("counter", 12);
    ("dma", 10); ("eeprom", 4); ("entropy", 3); ("flash", 14); ("gnss", 9);
    ("hwinfo", 4); ("ipm", 6); ("led", 6); ("mbox", 5); ("modem", 10);
    ("regulator", 8); ("retained_mem", 4); ("rtc", 10); ("sip_svc", 8);
    ("smbus", 12); ("w1", 9); ("wdt", 5); ("auxdisplay", 12); ("display", 10);
    ("video", 14); ("usb", 16); ("crypto", 8); ("espi", 12); ("kscan", 3);
    ("mdio" , 4); ("peci", 5); ("ps2", 5); ("sdhc", 6); ("syscon", 4);
    ("tgpio", 6); ("charger", 5); ("fuel_gauge", 4); ("haptics", 3);
    ("stepper", 8); ("i3c", 10); ("clock_control", 6); ("pm", 8);
    ("logging", 6); ("tracing", 5); ("settings", 6);
  ]

let stubs : entry list =
  List.concat_map
    (fun (group, n) ->
      List.init n (fun i -> z (Printf.sprintf "%s_call%d" group i) group 3))
    stub_groups

let all : entry list = implemented_calls @ stubs

let total_count = List.length all
let implemented_count = List.length implemented_calls

let groups () =
  List.sort_uniq compare (List.map (fun z -> z.group) all)
