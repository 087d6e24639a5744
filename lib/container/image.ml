(** Container images: a stack of layers, each a set of (path -> contents)
    plus whiteouts — the Docker storage-driver model whose materialization
    cost dominates container startup (paper §4.3). *)

type layer = {
  l_name : string;
  l_files : (string * string) list; (* path -> contents *)
  l_dirs : string list;
  l_whiteouts : string list; (* paths removed by this layer *)
}

type t = { img_name : string; layers : layer list (* bottom first *) }

let layer ?(dirs = []) ?(whiteouts = []) name files =
  { l_name = name; l_files = files; l_dirs = dirs; l_whiteouts = whiteouts }

let image name layers = { img_name = name; layers }

(* A base rootfs layer shaped like a slim distro image: libc, coreutils
   stubs, service configs — the ~30 MB base cost Docker pays and WALI
   does not (Fig 8a). [scale] multiplies the synthetic payload size. *)
let base_rootfs ?(scale = 1) () : layer =
  let blob tag n = (tag, String.make n 'x') in
  let files =
    [
      blob "/lib/libc.so.6" (1_800_000 * scale);
      blob "/lib/libpthread.so.0" (120_000 * scale);
      blob "/lib/ld-linux.so.2" (180_000 * scale);
      blob "/bin/busybox" (900_000 * scale);
      blob "/usr/lib/libssl.so" (600_000 * scale);
      blob "/usr/lib/libcrypto.so" (2_500_000 * scale);
      ("/etc/os-release", "ID=minilinux\nVERSION_ID=1.0\n");
      ("/etc/passwd", "root:x:0:0:root:/root:/bin/sh\n");
      ("/etc/group", "root:x:0:\n");
      ("/etc/hosts", "127.0.0.1 localhost\n");
      ("/etc/resolv.conf", "nameserver 127.0.0.1\n");
    ]
  in
  layer "base-rootfs"
    ~dirs:[ "/bin"; "/lib"; "/usr/lib"; "/etc"; "/var"; "/tmp"; "/proc"; "/sys" ]
    files

let app_layer ~name ~(binary : string) ?(extra = []) () : layer =
  layer ("app-" ^ name) (("/app/" ^ name, binary) :: extra) ~dirs:[ "/app" ]
