"""Golden outputs: the sha256 of the stdout and of every file written by
each acceptance-criterion-10 recipe, and aggregate digests over the
texture values and the bench parser's outcomes.

Criterion 10 compares two runs of the same code.  These digests were
recorded once, so any change to an emitted byte between commits fails
here, as the rule that outputs stay byte-identical requires.  They were
recorded under Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; another
numpy build may move the last bits of the einsum and field arithmetic
and so the digests.  The adjoint closure sums only the nonzero products
but reproduces einsum's summation order, so it moves with einsum.  Its
fit sums follow np.sum's pairwise splits without the dense array, so a
numpy build that changes that order fails
test_algebra.py::test_dense_sum_is_np_sum_of_the_dense_rows first.
"""
import hashlib
import json
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from su6lab import field as fd
from su6lab import state as st
from su6lab.cli import main
from su6lab.optics import (BenchParseError, parse_bench, run_bench, run_sweep,
                           shipped_bench_path)
from su6lab.serialize import save_state
from test_acceptance import RECIPES

GOLDEN = {
    "algebra verify --seed 11": {
        "<stdout>": "45e63c494e99a24f27627f04904df6670436654883a2ef65fe2524f647540a9d",
    },
    "algebra export --seed 11": {
        "<stdout>": "612ac802f43811dfd54948385167b126c2f0dd595a8675b92de3e9baa46df307",
        "adjoint.json": "07709181cf9862c4421447beea89ac0e5f882aea98b5a91a95c4aacce0ba288c",
        "adjoint.json.json": "44651d8e77bfbe4da874fda114e66e2b2696660ee59ea1ac141200146a599eba",
        "basis.json": "9404b60da48ae12f4e83351bea97c54a3719e524517cdbc2659a3efaa8f0c90f",
        "basis.json.json": "83954ced328f481149ce0daa88c4845e6561478598262a1a545981493efdb1ef",
        "g_tensor.csv": "622c0419068e3f1af3fd741dc6a5e894c1026b15ac94961530ed12575c6c7055",
        "g_tensor.csv.json": "0fc93fbdcef65795102bbb701610a104d114c47a2125354c4763bbadd52e0ab9",
        "g_tensor.json": "9752111a88408bba34020bc94ce458ef3a8e1f869510f8aef575e61bb798b2c0",
        "g_tensor.json.json": "9528b7ad6fc10357484c0e1298db329d8bcbd105b4b25f97e9df44be483cb2d1",
    },
    "state eval --state neel_out --spheres --torus": {
        "<stdout>": "2db03addc01d3bb5b80a2c3c772f475520607f614c74431fd8f77fcf97db7916",
    },
    "state eval --state basis_3": {
        "<stdout>": "42bde1263d6a03b41f3103918aabd6cf88c05ac8f883da688910cf6b73da6767",
    },
    "bench run --bench fig1": {
        "<stdout>": "4387ff1345b394e4e19178899d75dc271bf68f18cfe8e908f1e8926e4c5f9f26",
        "camera_state.json": "d9d9903bece6b0bea27ce96d286e31f0ad375de707da98ee695b05ab316d049b",
        "camera_state.json.json": "940d3fa0ee48a212f18eb57ecb47fac46b7e50d12079899cff3452fc7e27582b",
    },
    "bench run --bench antiskyrmion": {
        "<stdout>": "7ef0617e026383052c6ec65b979de24f58e45f899b04ff7b981db60b8cbf3bfb",
        "camera_state.json": "69d2d7b6e6225626a05a17a56b69fba7cb12c010f1c9b8016bd087414bd5bc76",
        "camera_state.json.json": "3048898b05632e344bb995d77faaeb16d9e99f6cb3fcbb3f55f18fbc2c7edd03",
    },
    "bench sweep --bench fig1 --element HWP3 --fields --grid 32": {
        "<stdout>": "05a53d79a41bedfec6a43a2b632bdde299bc6e3b95994e185bc51e765eee5cd3",
        "stokes_000.csv": "84b3734a446f0bbd58577f302ecb794c4ce066f133b96a6445f6daabcbc51668",
        "stokes_000.csv.json": "da4c16f0c38ec529103a11fb4e9f8b8687dafd56b10615de1e1ee05d17ec176b",
        "stokes_001.csv": "171f306c19e0543afab4b9c49ca615391b3bffa74b1337eb38eda1177b88df54",
        "stokes_001.csv.json": "5576943ed76b288b44e603fd6f92c160a9dd776ae56748bc89b859f0a8768c71",
        "stokes_002.csv": "12963ed7d8fa3860ed4ac51417ea8e0dc07d9dfa63eac87dff007e3ba9658874",
        "stokes_002.csv.json": "851580be7b5033f0f2226ab2d4f8cf519efa62e7710ac412d7a604dc66eba67b",
        "stokes_003.csv": "6f7a8c19ce33cd285e3c12642b40b5f0511041bf342c1c148b2e4f2ce6fe50cb",
        "stokes_003.csv.json": "115d55e8c4baae444c159a7913acb143021e37eba67698fc6b531000b0be6063",
        "stokes_004.csv": "4a17828fef2bbcc80870dfa675c631334961537dedc18216dfa0a69667b10560",
        "stokes_004.csv.json": "ee047eec3f9f7b36bbfce69c85c093e5d6fe74d6fc1221b9b7b30f44ad43fe05",
        "stokes_005.csv": "395b6e75c082d3bde5aff02229ed2d955da253d4280f863f3aa356472b864f66",
        "stokes_005.csv.json": "205b7a0dc8e6fdf08863e5615844e0e4ae02e283b2d2ff0d2c49c583404b4416",
        "stokes_006.csv": "744e809f8f0baefee2e4a492623bc816b9a7f7363dc81bdd2fdd6948f82d9fda",
        "stokes_006.csv.json": "a136d938040e131015af4130f966b0fb5a70eeb22e95069ba3a428e389a30ead",
        "stokes_007.csv": "f7126043f0ee11dbc5e4b100801d24ef2e3921261cdd525c547c5fef3cfd9b71",
        "stokes_007.csv.json": "98f312ccd86192382c14589bc9fb66e8e2b5b0dd409731e895196ab75aa8caf6",
        "stokes_008.csv": "844e25b1ad34e27f872bba07f2836383a5f571fd68246682c3805153b435bb3f",
        "stokes_008.csv.json": "da46e5f1fecbbcd18f623c9bc6a1ccd927d9c08b29bf7481fbe357c7869864e6",
        "stokes_009.csv": "7377658d6ca16e357b272192b224e7723a21b9bc4cc7ddf4fc4d954cece1aff8",
        "stokes_009.csv.json": "fc1fcac5d620b1edd36eec12216a6697b0ce735fd5020ac99c5bae33ce4aa7a3",
        "stokes_010.csv": "c32dad9a46b0ac04366078e846201606cb629b67550492625c1d2fcf3be57ea4",
        "stokes_010.csv.json": "2cff0bacb9a356a3494beca31d08e9ea74738e1065046e19756b74a9a62a4948",
        "stokes_011.csv": "9f39f965e92a45097564181967e1460ee1f4e5946509403019a54c3e23b13fa2",
        "stokes_011.csv.json": "fab63d7401b75521402304f56a66d425ecbb0339c4080ad9436090ca965ee744",
        "stokes_012.csv": "65c24917488887f970ab0e850b10640a6d2908b31ed4f42561eb12da66a740fe",
        "stokes_012.csv.json": "9ef4c3b05b006cfabaefec6b8c5391b13f8009147b05976889093a5ab788f09d",
        "stokes_013.csv": "77bca17431249b0a8458ccf2fc6af4f6e36faa50b71002f148183a227d30c5ec",
        "stokes_013.csv.json": "d0a5a65e2564ec2505095f9c3f6b5c18dedfb288014331827868d53b4a029995",
        "stokes_014.csv": "4c24b64f3b9322dbaf388c9e56e201a6a4f4d6308614a3a83c4a6b64d6f9df19",
        "stokes_014.csv.json": "ecdfa8f128ba38e1294f948048fd95c172ceefdeb1992651c768b234c433ae92",
        "stokes_015.csv": "6a9a83ce75d86c3fdb9f912bfe6716961ba3f11c72c1ec90bf380cd7350575c1",
        "stokes_015.csv.json": "cc12eca44d080290eb9eac8f9db5e9bdd970e214ba37b04a274c5f7b8e49fc9d",
        "stokes_016.csv": "8b8f336aa9ee14cb7f6472d2af9c0ce2a35559d4783b6bfcb51a735d7fa7334f",
        "stokes_016.csv.json": "e8f46d0bacadd2dc596cbacbf470d585250b00a484b3ec91147f29994918dbf7",
        "stokes_017.csv": "36dd812012e0321f52124376f7e300f137e247524bb6e6117e334b3c16f24a5c",
        "stokes_017.csv.json": "8a3ead3af46d9acadb43a2d14d9233e100b9133cd6a44505d28da510bae402c3",
        "stokes_018.csv": "369f2b66a816a9fa975396dc5eade8d6983fc216db9487c5cfd263ed5d480803",
        "stokes_018.csv.json": "f7ae515ca9e6c63f321106bdaee214561776e3b2a46781cf3cc62e1cf369a56d",
        "trajectory.csv": "2cc778050dda12e2f6e79f410b38bffa17ef18276ed48900da1b21cfdbcda5c6",
        "trajectory.csv.json": "4ad609197ac1504d875cc872a3517c4e2c2e51c0257aa3b346e011006f99a2a9",
    },
    "bench sweep --bench fig1 --element HWP1": {
        "<stdout>": "5e794e255cab1bf2419e661bcffe07330ca5b0d2012a276b266245be01f26e89",
        "trajectory.csv": "5ae26778545b657bb1edeca171963dfbc49044d61b4c67b15d347d722c1b2003",
        "trajectory.csv.json": "a0d3047294d05e0262991826bb298ec54a308b5008e51697f24c2bb8f9141a95",
    },
    "field render --state neel_out --grid 64 --skyrmion-number --bubble 16,32": {
        "<stdout>": "a07b17653abb1534e036ac3a987e068ca3b5a95372c57e7d78c1cf112eb74314",
        "bubble.csv": "242110b4874847b047f019dc5c458352267dcbbb5836e7122f9529833b901232",
        "bubble.csv.json": "36da5e2f346a637ed2674d3ab800829875f58e400f7c8f0ec7bb83f1d032c46a",
        "s0.pgm": "d446c281caff7bb72b8d51ca4ce2ede807b862f27fe91208a64338d2b24d2c03",
        "s0.pgm.json": "d0e72cf08c822055ea4138a33d240c3c3edc88e5348e9e103d9a238d2f1514fe",
        "s1.pgm": "f1d106006f9076d0be667559fd24543d9ce1c3306f9912bacba9fe41b26afd6f",
        "s1.pgm.json": "75483d95c47aebfc28aad4d2e667f6df05e4f2eebf033fe250063dfd52138581",
        "s2.pgm": "bf73853b0e662208c1730ab350ab8b53eb0778bf8029ebd435942554bfcb94c4",
        "s2.pgm.json": "2a981f20145179cf2f023f5e20afc0760b232320cb8f326dc1abcdadf8cba30c",
        "s3.pgm": "606f62aaba902de08c25a74e5d52786a60a2d840df4180ba598d6644d7dda737",
        "s3.pgm.json": "879a5a5385199805c0c2ef94e3612ceb382c91671201ed1bb5d23ce1ced9bc23",
        "stokes.csv": "28b1f8e0be78d740b0b99d793c07b2221f316e035e2ce0da612745f63d87daf6",
        "stokes.csv.json": "65d6d305850593da6463ed27c9f8ddd65158a1d8ab7ab713a100a1bfa2d16bc0",
    },
    "field render --state basis_3 --grid 64 --skyrmion-number": {
        "<stdout>": "376a8ad745c7b960852fc36a88e61ab755b269593d9613ac488dbe0fd904583a",
        "s0.pgm": "70db619e7bed80e0748102b3dc745dfff9bbb77c41c3d0509723fba25ab06935",
        "s0.pgm.json": "80405a15c9b91f4b06265a50006033eb52d8985261922eabfcee389788d82323",
        "s1.pgm": "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
        "s1.pgm.json": "c977a9b19fc75f2c873c6d8b2edb057f57f2970b603cab7c9564a712b46aed6f",
        "s2.pgm": "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
        "s2.pgm.json": "cccaa7cc16687e29b9e98be67844b9190799a4f7a1ca91ca8832c8c3e4166b41",
        "s3.pgm": "70db619e7bed80e0748102b3dc745dfff9bbb77c41c3d0509723fba25ab06935",
        "s3.pgm.json": "c7ea653e80265e868f1547a1d6040d41fb59de8c4d6240dddb03f4483baa1a80",
        "stokes.csv": "144d378a839c72c7481a730ad9437b6ebf2b2092463dde2baf403275b952e55f",
        "stokes.csv.json": "330384edf915b74d91eece459a1aaad59d76d72b1634902e0535c9e57d863bc1",
    },
    "field render --state dipolar --grid 64": {
        "<stdout>": "037f637c4b92f94165eaafbb556f635a09744e8984adcd02375eea734e7de356",
        "s0.pgm": "37e77b3530e1099d900d7ad7792454f52df55a160018387d2e90dacd250f6c67",
        "s0.pgm.json": "290225d570a339116316511fa3939586cebfc413727398f4f6ec6228c5cda341",
        "s1.pgm": "f1d106006f9076d0be667559fd24543d9ce1c3306f9912bacba9fe41b26afd6f",
        "s1.pgm.json": "76e4ee6aa8f2fd2e23aab89492ecafa709efb5ef3e02ad6378ea3cbf6a576f72",
        "s2.pgm": "3db2fca03e6a810872bd3b10250e830fadbf388db957b79ee41ae59f003392a9",
        "s2.pgm.json": "6013bb088719eb78abbd59e009f44d2aaa9e8a2a28985b5ea1028819d9762f3a",
        "s3.pgm": "4bae542f44d30fd2a22c13421d0c48eb774d6f0e2bec0febd9c86855e39183f7",
        "s3.pgm.json": "34a65c1d789dd168062a265796f136616aa29967017d9948fd1d80bb0f0ca438",
        "stokes.csv": "7f5d277d80eb16be3f46238364985dad18fd4882075c2f41ea85637cb4bee6c3",
        "stokes.csv.json": "e36ad0ea54ee79d922e29e213b5a0c0131fbf5623dfa5878bdb109708791777f",
    },
}


# not a criterion-10 recipe: at extent 4.2 the disk holds a dark ring, so
# the charge pass continues the texture past the intensity cutoff
EXTENT_RECIPE = ["field", "render", "--state", "neel_out", "--grid", "64",
                 "--extent", "4.2", "--skyrmion-number", "--bubble", "8,16"]
EXTENT_GOLDEN = {
    "<stdout>": "27cadb8c4d52ceef1862e45e51b223f165880deab1fdc177a0ffae50d0364601",
    "bubble.csv": "49a29d277325f63c05684bf7558be47727e3a1b1ce1bf39baf80f946ec787aa0",
    "bubble.csv.json": "ce87c18472bd7481eed02b24ed2c60b23c6d95f7703c00b2a3253122c20403cd",
    "s0.pgm": "e5659d9f6f5951ceb12c0ff1500f13ee8196d952759794853e1f9ff2015085b8",
    "s0.pgm.json": "ada015b06ee6dc6969fbdf823533da4fd931f54d75f09de343b2949d5a492fb1",
    "s1.pgm": "d5fc1d1515b7a82d537a36366331841dddffe1f9dbaa39962e44b1f7feb3c065",
    "s1.pgm.json": "45cb992fa7d8095ce880bcbe21e2282fb79e65e6b1e0837e6e7dcb90d51e5e93",
    "s2.pgm": "30730289dab16aa23f97ddb7221e4178a5e9964f443b0eaf65a7df2f2b8bdaa6",
    "s2.pgm.json": "aec4cda6ec04a642d4d47d017d9cdbca2c25146c5ed5a24da85f5d913e2e1e02",
    "s3.pgm": "4b42afeb5f9e88c835784ba5c00096ab0b7afab9f6bdcdb9101dbef09d9c49f2",
    "s3.pgm.json": "25d2e7b0b42276a25e800502bdbb0ca841b6dc3dc0cdf8319e4b9347bb05b2d6",
    "stokes.csv": "76c0552b2f31f742b68362a280d6001bdc969e77301a8667f715568d6ce4362e",
    "stokes.csv.json": "8112c9529eefa6fdf3f4dad21b1ffab2e3a3a1e3874b73cde77c57d592224f61",
}


# not criterion-10 recipes: the antiskyrmion sweeps (HWP1's 19 frames all
# leave the torus family, so theta_p and phi_t print nan), the Jacobi row
# at two more seeds, and a state file with n0 != 1, run from the file's
# directory because stdout echoes the token
STATE_FILE = "s.json"
EXTRA_GOLDEN = {
    "bench sweep --bench antiskyrmion --element HWP3": {
        "<stdout>": "561935d0a0b78f7dea2be25bbe7219a92100c0332cab5a27907fa43825cf008c",
        "trajectory.csv": "1151194f158f5d1a0cf5314be7988fb2e7c1bbfb7a82a87c847e7864a3d89d1f",
        "trajectory.csv.json": "129147069ee1759237936dbd2ffdd8f7d0abafbf30467ee7cae5c9b779956626",
    },
    "bench sweep --bench antiskyrmion --element HWP1": {
        "<stdout>": "3ff8e060811c9a1057f77f8224be5f5f20906bad5a8b7b53f35dca5dc0f5e1e6",
        "trajectory.csv": "6575dea58e256b20a2fbde355978757d569428cf69937a94a247502ade43468a",
        "trajectory.csv.json": "441018a01583a46d541a71508c7379b99900fb58456802632656952c78112c71",
    },
    "algebra verify --seed 0": {
        "<stdout>": "45e63c494e99a24f27627f04904df6670436654883a2ef65fe2524f647540a9d",
    },
    "algebra verify --seed 1234567": {
        "<stdout>": "a07de9bcd8948a5cc92ad03453c81349784dd1f6af6d6181c301925be1703729",
    },
    f"state eval --state {STATE_FILE} --spheres --torus": {
        "<stdout>": "387bce22d79e21ecd8b84d4ed23b703c380f5c9ff47c6787944fb77e6a1d0fcb",
    },
}


# not criterion-10 recipes: the HWP1 sweep with its Stokes files, the area
# profile of the bubble map, and a 181-frame HWP3 sweep (fig1 at step 1)
# whose rows pin many sphere points and labels; the bench file is written
# by the test and named by a relative token, which stdout echoes
SWEEP_BENCH = "hwp3_181.bench"
MORE_GOLDEN = {
    "bench sweep --bench fig1 --element HWP1 --fields --grid 32": {
        "<stdout>": "0c09d23035160f3503ea99c308ffa0de892ae48c09dd598f2871492a6f46637b",
        "stokes_000.csv": "64eec450617d4c14e9660627a7af9223dc6f2eaf73ef02da11b954d3c0f71f46",
        "stokes_000.csv.json": "c73ea98ccce749e7ac9c95b53ef9b15f2f3d193fd81153f404be3e69120f1f8e",
        "stokes_001.csv": "6491296fb03654c54957cdb3fa6c87fda692ae4ffc831254a8c7a05564197f6d",
        "stokes_001.csv.json": "d3825758331035a87bc818d771d1b1f3f697e6d7020b81c2eb12dd73e5a0a944",
        "stokes_002.csv": "ca8856682af8fb3b7377ae9c9b437d1dd345ac3dcad3718378b4bb7b2745460e",
        "stokes_002.csv.json": "8fa73e79b4ebc5dbf91c4db28af68d319edf9063d1692a431f705613b2bd694c",
        "stokes_003.csv": "4978ab19987432d062eb3c2fc9ebda8153c1ba17965552d1c500e49d32bc7594",
        "stokes_003.csv.json": "1f45e161d0f47f593526928a7a67a73ca3ba348a4e1ef3a28e64bb5b7103b08d",
        "stokes_004.csv": "e11b645c293f3a73b5b71446fbfdfe1fffcd4b94187bae1dee8ab3cb532ea4a2",
        "stokes_004.csv.json": "83409494c274c6abe9a6db1b72e523d3c41e2759f91b2d90056c7badcd6be110",
        "stokes_005.csv": "21844b9222bbc0045112a560b0a0e6d6d0a60c25ef913141d8e718c62241065c",
        "stokes_005.csv.json": "2240d261dac9c3bcac7e5a5067e674ac0fc71f6defb28188f6004f1cb7e56d24",
        "stokes_006.csv": "f82252074a8618b1a3ec3a723d6c4c9b45da09ab546bc67083648b17123753c7",
        "stokes_006.csv.json": "9f278ac61be59266d519fd53300dd9e537b71dcbad6d3d668de6d5c3570f9d41",
        "stokes_007.csv": "1422e491848c74df5f46c7e11d9a8811016c256dc80e912eaa207b9bcfbfb2d2",
        "stokes_007.csv.json": "0b7e12de6e915fc891da8edd59fdb8ec47cf0354ebb75f42db66c904ac81fa91",
        "stokes_008.csv": "fd329799d34a85b5ca9a6682a0de468176326fe78473f9654b93ecb7c32ba9fe",
        "stokes_008.csv.json": "5c21953185eebd5bea9b81d46f53a682686f8f02a3b322fe80ae39d8e7982643",
        "stokes_009.csv": "75a42947512bc6a986c10bf9a8cfd9a2e00422dc5484503489dd604146221fa7",
        "stokes_009.csv.json": "0f24ec73530a08c858d6199939add7d78a062b5e5c9bbc874192ae0b0e30c660",
        "stokes_010.csv": "a9a6f353a5a49284f2ee4cb81aa0b5a200999572239d60478d10edd095ed27c7",
        "stokes_010.csv.json": "565750b9471c91a2603f07306166db5051c3f11c291ed77cfe060426db795ebd",
        "stokes_011.csv": "7dafcc91282da23492425b73f0ef78b87d63d0a6dbb91189861d20393b2820cc",
        "stokes_011.csv.json": "240605670275140590b0fb7d96746a447c4c0b4d61cd1fe1e5701547cc0c2703",
        "stokes_012.csv": "e5aa49d4a5d405f63936a01037b0941f535c9a8a10088f373c1cf45217d51b43",
        "stokes_012.csv.json": "fe3147c53d47da7b0ebebbf1781e1586bb03e930e76ad0c2dde7267b4fac97bb",
        "stokes_013.csv": "8dabe0e618c9c5fe20ef691228e14348b1a6c1a5e651d90f765ab6283664684b",
        "stokes_013.csv.json": "95b4bba2f41a6b8d97a5a3c4cf81e1b609cb0f26e5372c45d7b212dd849dea8a",
        "stokes_014.csv": "586bf036da1e5757ced576c9f72dcb52a0899545956e2f08dd9159b4d9ccb36f",
        "stokes_014.csv.json": "f8fa88dc30c629f3e6708e81820b16633d557fb4c0c4b584c3cb25afcfc6eaff",
        "stokes_015.csv": "e8ed8edc14e445e0486ab5a2d3a5f2fcc2344187c9ffa08ca819df860f808c0d",
        "stokes_015.csv.json": "719aa45b206640109ca4f794df2d2b59e3514f749242de519d89efffc87a1bbb",
        "stokes_016.csv": "f2202eaa5ee9961f6d4eb1f2aa7e3cc4fcc033c78e286cf7d5f496a7bc406b8f",
        "stokes_016.csv.json": "08a907c22d711b95f47253ef7069a1e2062281facc6319ff1826c7b98bfa0609",
        "stokes_017.csv": "37d3979ce6868d714e4452f650c097aed89089602a2654a680501f80c10431a4",
        "stokes_017.csv.json": "7914d9d4785f9437aab9be60baed58624c4bc0954b1de730177cd4987fb1a3ba",
        "stokes_018.csv": "1e805c1aef1d94c5a1cb094927e0df9766b2f492fcba23bfd8036feb90627fb5",
        "stokes_018.csv.json": "a663057b6272e76b0e7837169a0ec1ae394df921c1b0aaf7c7a22088e7cfad50",
        "trajectory.csv": "5ae26778545b657bb1edeca171963dfbc49044d61b4c67b15d347d722c1b2003",
        "trajectory.csv.json": "be16118d5f7455ec2a2378ad97685fde4f8ff29defb5466744b28a60f0225bb5",
    },
    "field render --state bloch_left --grid 256 --bubble 32,64 --profile area": {
        "<stdout>": "25e1aff9fafe123252c963afd090016caf1f3075c9026fb14f41329592c824f1",
        "bubble.csv": "f291cd236370cbb526001a9b7a56214a5afeb5405ce2ad0b8a0661168570e170",
        "bubble.csv.json": "1d2abce3af899ac5f2fe4df46f27643d1b64d489c390d9f99cfa955a84c3013c",
        "s0.pgm": "715dac2102b7d08a33431b4e678b14b8fbef1a747fb632211aa8f33f58ac03be",
        "s0.pgm.json": "23f64d9809b2f3f4a281bc7ddf48a8e24660625951d671328ef705080f32d531",
        "s1.pgm": "d80ed11878b0f59ec204a05be258547cfb42c9bd1e215e7ba924aea646464329",
        "s1.pgm.json": "6e53ffb35a2edb147252d354e4036fc93b9e86e5eab1a3c57615543649c825fe",
        "s2.pgm": "e4c9bfc785c1db7801d59a7e22ba097fee84e5c0009de5ab82be2755d3ae66d8",
        "s2.pgm.json": "0baaa3ee8aba20e4654d0966ea540bf3bef641f6d80a63a1119e0289c8d986b6",
        "s3.pgm": "6fa7ee68941a1c9a3949bc8795be1de0d2e718cb9b9056c358606bb364a8087b",
        "s3.pgm.json": "5a6a12903c7509b914d9c4f9e049f83b994ea9a6b6af8da653e5b0af286326f7",
        "stokes.csv": "e0c9c866e5fe3eb7f5e4db20980f9cdcb7afc628a3fb2ccb9e7e4193fd5a0ddf",
        "stokes.csv.json": "88554b01c8a12ef28c6d0dd8ec48f049114c073ff92224d31cbfac976aadac60",
    },
    f"bench sweep --bench {SWEEP_BENCH} --element HWP3": {
        "<stdout>": "4becc2ee1b38c075d62d0509ada6fd35e674c3ee4263a9b96ede4a5199b57f66",
        "trajectory.csv": "c5049400a82617ed4e3e94ed104b7d210a5a82601935ec64772b89f543e95b17",
        "trajectory.csv.json": "d38b65c7e52408e53b772b42883a80193c9f2da554ee41ff62edada8f27bfaa9",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(args, out, capsys) -> dict[str, str]:
    """Run ``main`` with ``--out out`` and hash its stdout and every file
    it wrote there."""
    assert main([*args, "--out", str(out)]) == 0
    got = {"<stdout>": _sha256(capsys.readouterr().out.encode("utf-8"))}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        got[path.name] = _sha256(path.read_bytes())
    return got


def test_golden_table_covers_every_recipe():
    assert sorted(GOLDEN) == sorted(" ".join(r) for r in RECIPES)


@pytest.mark.parametrize("recipe", RECIPES, ids=" ".join)
def test_recipe_outputs_match_golden_digests(recipe, tmp_path, capsys):
    assert _run_digests(recipe, tmp_path, capsys) == GOLDEN[" ".join(recipe)]


def test_continued_texture_render_matches_golden_digests(tmp_path, capsys):
    assert _run_digests(EXTENT_RECIPE, tmp_path, capsys) == EXTENT_GOLDEN


@pytest.mark.parametrize("recipe", EXTRA_GOLDEN)
def test_extra_outputs_match_golden_digests(recipe, tmp_path, capsys,
                                            monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    save_state(str(work / STATE_FILE), st.named_state("bloch_left", n0=3.0))
    monkeypatch.chdir(work)
    got = _run_digests(recipe.split(), tmp_path / "out", capsys)
    assert got == EXTRA_GOLDEN[recipe]


@pytest.mark.parametrize("recipe", MORE_GOLDEN)
def test_more_outputs_match_golden_digests(recipe, tmp_path, capsys,
                                           monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    fig1 = shipped_bench_path("fig1").read_text()
    (work / SWEEP_BENCH).write_text(
        fig1.replace("to=180 step=10", "to=180 step=1"))
    monkeypatch.chdir(work)
    got = _run_digests(recipe.split(), tmp_path / "out", capsys)
    assert got == MORE_GOLDEN[recipe]


def test_recipes_match_golden_digests_with_scipy_blocked(tmp_path):
    # numpy is the one runtime dependency: with scipy unimportable, a
    # fresh process gives every recipe its pinned bytes
    code = f"""
import contextlib, hashlib, io, json, os, sys
sys.modules["scipy"] = None
from su6lab.cli import main
got = {{}}
for k, recipe in enumerate({RECIPES!r}):
    out = os.path.join({str(tmp_path)!r}, str(k))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main([*recipe, "--out", out]) == 0
    digests = {{"<stdout>": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}}
    for name in sorted(os.listdir(out) if os.path.isdir(out) else []):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    got[" ".join(recipe)] = digests
print(json.dumps(got))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


# ------------------------------------------------------------- bench parser

# bench texts that reach every parser rule: the shipped benches without
# their comment header and a one-line bench with every kind, each cut and
# spliced with these words and statements
_BENCH_BASES = (
    *(re.sub(r"(?m)^#.*\n", "", shipped_bench_path(name).read_text())
      for name in ("fig1", "antiskyrmion")),
    'bench "k;#" ; input state=in.json ; pre: POLARIZER angle=90 id=P / QWP angle=1 / '
    "PH phase=5 / VORTEX_LENS chirality=L flipped=true id=V / M  # all kinds\n"
    "sweep element=PH1 from=0 to=10 step=5 ; sweep element=P from=0 to=1 step=1",
)
_BENCH_WORDS = (
    "HWP angle=10", "QWP angle=-45", "MIRROR", "M", "VL", "VORTEX_LENS chirality=L",
    "POLARIZER angle=90", "PHASE angle=1", "PH phase=5", "PL angle=1", "/ M",
    "/ VL", "/ HWP angle=1", "id=M1", "id=HWP1", "id=VL1", "id=PH1", "id=",
    "id=X", "id=M2", "element=PH1", "element=X", "element=M2", "element=V",
    "element=", "angle=", "angle=nan", "flipped=true", "flipped=yes",
    "chirality=Q", "record=torus", "record=", "step=0", "step=3", "from=5",
    "to=-5", "to=1e308", "/", ";", "#", '"', "\n", "=",
)
_BENCH_STATEMENTS = (
    *(f"sweep element={eid} from=0 to=10 step=5"
      for eid in ("M1", "M2", "VL1", "V", "M3", "HWP9", "PH1", "HWP1", "X")),
    "sweep element=X from=nan to=1 step=1", "split PBS", "combine NPBS reflect=A",
    "arm A: M", "arm B: VL id=X", "pre: M id=M1", "pre: HWP angle=1 id=V",
    "pre: VL / HWP angle=3", "input state=x", 'bench "b"',
)


def _mutated_bench(rng: random.Random) -> str:
    """One of the base texts after one to three random cuts and splices."""
    text = rng.choice(_BENCH_BASES)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(8)
        # most edits fall on a word boundary
        gaps = [m.start() for m in re.finditer(r"\s", text)] or [0]
        at = rng.choice(gaps) if edit else rng.randrange(len(text) + 1)
        lines = text.split("\n")
        if edit < 2:  # insert a word
            text = f"{text[:at]} {rng.choice(_BENCH_WORDS)} {text[at:]}"
        elif edit == 2:  # cut a few characters
            text = text[:at] + text[at + rng.randint(1, 12):]
        elif edit == 3:  # replace one word
            words = re.split(r"(\s+)", text)
            words[2 * rng.randrange((len(words) + 1) // 2)] = rng.choice(_BENCH_WORDS)
            text = "".join(words)
        else:
            if edit < 6:  # add a statement
                lines.insert(rng.randrange(1, len(lines) + 1),
                             rng.choice(_BENCH_STATEMENTS))
            elif edit == 6:  # repeat a line
                lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(lines))
            else:  # drop a line
                del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
    return text


def _parse_outcome(text: str) -> tuple:
    """(repr, "", 0) of the parsed bench, or (error type, message, line)."""
    try:
        return repr(parse_bench(text, source="m.bench")), "", 0
    except Exception as err:  # any error type is part of the outcome
        return type(err).__name__, str(err), getattr(err, "line", None)


def test_parser_outcomes_on_mutated_benches_match_golden_digest():
    # pins what parse_bench makes of 2,000 seeded mutations: the bench it
    # returns, or the error type, message and line it refuses with
    rng = random.Random(16)
    digest = hashlib.sha256()
    for _ in range(2000):
        digest.update(repr(_parse_outcome(_mutated_bench(rng))).encode() + b"\n")
    assert digest.hexdigest() == (
        "a7e9b0d849f7d8d3d25f166b7aa25a5fa71d45b0400f8df1626023b1a1fa7d8c")


# --------------------------------------------------------- bench propagation

# benches the mutated corpus does not reach: reflect=A with a sweep over an
# element of each section, and a dark frame in a pre sweep and an arm sweep
_FIG1 = shipped_bench_path("fig1").read_text()
_RUN_BENCHES = (
    _FIG1.replace("reflect=B", "reflect=A")
    + "sweep element=QWP4 from=0 to=90 step=15\n"
    + "sweep element=PH1 from=-90 to=90 step=30\n",
    'bench "dark pre"\ninput state=h_gaussian\n'
    "pre: QWP angle=0 / POLARIZER angle=0 id=P\n"
    "sweep element=P from=0 to=90 step=45\n",
    'bench "dark arm"\ninput state=dipolar\npre: HWP angle=10\nsplit PBS\n'
    "arm A: POLARIZER angle=90\narm B: QWP angle=0 / POLARIZER angle=0 id=P\n"
    "combine NPBS reflect=A\nsweep element=P from=60 to=0 step=-20\n",
)


def _run_outcomes(bench, put):
    """The camera state of run_bench and of every frame of each declared
    sweep, or the text each run is refused with, through put."""
    # a bench whose input is not a named state runs on a fixed state
    given = (None if bench.input_state in st.state_names()
             else st.named_state("dipolar", n0=2.5))
    runs = [lambda: [run_bench(bench, given)]]
    runs += [lambda eid=sw.element_id: run_sweep(bench, eid, given).frames
             for sw in bench.sweeps]
    for run in runs:
        try:
            states = run()
        except (ValueError, RuntimeError) as err:
            put(f"{type(err).__name__}: {err}".encode())
        else:
            for s in states:
                put(s.alpha.tobytes() + float(s.n0).hex().encode())


def test_bench_runs_match_golden_digest():
    # pins run_bench and every sweep frame, bit for bit, of the shipped
    # benches, the benches above and the mutated benches that parse
    rng = random.Random(16)
    texts = [shipped_bench_path(name).read_text() for name in ("fig1", "antiskyrmion")]
    texts += [*_RUN_BENCHES, *(_mutated_bench(rng) for _ in range(2000))]
    digest = hashlib.sha256()

    def put(data):
        digest.update(data + b"\n")

    for text in texts:
        try:
            bench = parse_bench(text)
        except BenchParseError:
            continue
        put(repr(bench).encode())
        _run_outcomes(bench, put)
    assert digest.hexdigest() == (
        "c09c0e9749cb39e11cf7c20e41be93e9f0a286b16dfc9f32a91fc29f078b089d")


# ----------------------------------------------------------- texture corpus


def _texture_corpus(put):
    """Every texture value the corpus pins, in order, through put."""
    # the integration disk: the extent, a radius off the pixel centres and
    # the exact radii of three pixel centres, so pixels lie on the circle
    for size in (16, 17, 64, 65, 256, 1024, 1025):
        g = fd.TransverseGrid(size, 3.0)
        rr = g.rr
        centres = ((size // 5, size // 3), (size // 2, 0), (size - 1, size // 2))
        for radius in (3.0, 1.7, *(float(rr[i, j]) for i, j in centres)):
            disk, count = fd._disk(g, radius)
            put(radius, disk, count)
    # the 16 named states and four seeded ones: modes, Stokes fields, mask
    # and every charge field, or the refusal message, over two disks
    states = [st.named_state(name) for name in st.state_names()]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        states.append(st.CoherentState(rng.standard_normal(6)
                                       + 1j * rng.standard_normal(6)))
    for size in (16, 17, 64, 65, 256):
        for extent in (3.0, 4.2):
            g = fd.TransverseGrid(size, extent)
            put(*(fd.lg_mode(g, m) for m in (1, -1, 0)))
            for state in states:
                sf = fd.stokes_fields(*fd.synthesize(state, g), g)
                put(sf.s0, sf.s1, sf.s2, sf.s3, sf.n, sf.mask)
                for disk in (None, 1.7):
                    try:
                        q = fd.topological_charge(sf, disk)
                    except ValueError as err:
                        put(str(err))
                    else:
                        put(q.finite_difference, q.solid_angle, q.closure,
                            *q.rim_spin, q.rim_alignment, q.undefined_fraction,
                            q.disk_radius)
    # two bubble maps
    for name, size, extent, disk, bins, profile in (
            ("neel_out", 256, 3.0, None, (32, 64), "linear"),
            ("bloch_left", 65, 4.2, 1.7, (7, 50), "area")):
        g = fd.TransverseGrid(size, extent)
        sf = fd.stokes_fields(*fd.synthesize(st.named_state(name), g), g)
        tm = fd.soup_bubble(sf, disk, bins, profile)
        put(tm.vectors, tm.counts)


def test_texture_values_match_golden_digest():
    # floats as float.hex, arrays as dtype, shape and bytes, messages as text
    digest = hashlib.sha256()

    def put(*values):
        for v in values:
            if isinstance(v, np.ndarray):
                text = f"{v.dtype}{v.shape}".encode() + v.tobytes()
            elif isinstance(v, (float, np.floating)):
                text = float(v).hex().encode()
            else:
                text = repr(v).encode()
            digest.update(text + b"\n")

    _texture_corpus(put)
    assert digest.hexdigest() == (
        "61fbe9fa3bc9a10f2d25b44efa5cddc5b06b107dd3e33c3d9a90bde5e95b81e5")
