"""Bit-for-bit pins of the vectorized core's answers, curves and ledgers.

The solver tests check accuracy within tolerances; these digests also
fail when a change to the core loop (the SpMV, the guarded divides, the
mask tests, the convergence log, the ledger tallies) moves a single bit.
Each case runs one ``dispatch_solve`` and pins three SHA-256 digests:

* the answer: ``x``, iterations, residual norms, ``converged`` and
  ``logger.frozen``;
* the forensic curves: the concatenated ``residual_curves()`` and their
  lengths;
* the ledger: ``flops``, sorted ``bytes_by_object`` and sorted ``calls``.

The grid runs CG, BiCGSTAB, CGS, BiCG, Richardson and GMRES with Jacobi
and identity, batch 1 and 16, on 3-point stencils of 24 and 40 rows,
from a zero and a non-zero initial guess. Single precision runs CG and
BiCGSTAB; one BiCGSTAB batch has the drm19 shape (56 systems); one batch
holds a zero right-hand side; one holds a zero matrix, which breaks every
guarded divide down in the first pass and freezes that system.

The digests were recorded before the core loop's host-cost trim (the SpMV
into the caller's buffer, the guarded-divide fast path, the raw curve
snapshots and the one-pass tallies of Richardson, CGS and BiCG). To
re-record after a deliberate change of the arithmetic, print
``_digests(_run(case))`` for every case and explain the change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.dispatch import dispatch_solve
from repro.core.matrix import BatchCsr
from repro.workloads.pele import pele_batch, pele_rhs
from repro.workloads.stencil import stencil_rhs, three_point_stencil

SOLVERS = ("cg", "bicgstab", "cgs", "bicg", "richardson", "gmres")
MAX_ITERATIONS = 100

#: case -> SHA-256 of (answer, residual curves, ledger)
PINS = {
    "cg-jacobi-n24-b1-cold": (
        "4e1de923558bbfe825e213e2b663295f088a0a33d5a762c8f65f891b4e5883f3",
        "7c01ba816103fa2a0b41281eafd28edfe41e01bb568480267fad6eb5fcbeccfb",
        "0974a3de101a6773f59bec160060dde87e220fd74c9b2e8d8f1448180b437d72",
    ),
    "cg-jacobi-n24-b1-warm": (
        "25114f6954cc836d26a7050c8b98648d88a268a0dc2b2769a522ec2907077845",
        "43c5b9d7bdf91ed17b4e3e909fdb504638edf7671f562ff3fab4fb783aae453b",
        "1734b28bf3ac97e298430b2033deeafa2a599d0545f5747e33e5a6e59fda8b04",
    ),
    "cg-jacobi-n24-b16-cold": (
        "5c1d2ea7079adbc6db4d81efd3614293304302bb9e2b15e37a4655f6339268e0",
        "fb6b8206dafc1a8993f80b945fd60438c0138fa9f8c7f244d053b61d72d8e290",
        "66f88be82ad3cab6022772845c55b8e8c40a7e85b5127ae0125d75016a7320ab",
    ),
    "cg-jacobi-n24-b16-warm": (
        "c327fc09486bc20c4e87dba1e84fba40491b43f1c098a41040f41ecdd6e7192a",
        "3d581a6260506d37713a2a8a7d2f985421a4841bf60c035df45d195c49c695a6",
        "55a51b0c5bdad0dc0eb94a7366cff968ed8dbb9e01b549e4c8955d6e089e04a7",
    ),
    "cg-jacobi-n40-b1-cold": (
        "9267833d2d91276a218cdd72eeb1dd17a3b85c3fe8d3fe6f0914a07596342aa0",
        "b9092e37873a4a5002f57ebe377180a90bf9bf1b894ad86956ea1cadb249d0d9",
        "8c6701cc6006874e7bbb07195f16a2e8eb07fa0cc943c627b515bb2740064779",
    ),
    "cg-jacobi-n40-b1-warm": (
        "921970768d8e1eeafe2e614fc58d888fd836610d1397d0875ef54bd860e13509",
        "dc43e85f1d38e8a8c30c33348e67ffbe9161d881abda1da74b85021c8e3a6aa8",
        "ab9149c867e6d0ffe398d94ba3b59c03940fbf6ebbecd7ceb831739167bd2787",
    ),
    "cg-jacobi-n40-b16-cold": (
        "7df98a9e46a44b63c2bf127f0d327d6aef6b4baf5640058db7cbd318e619085b",
        "26a5439222a3094e2deec920f9096676d1bce6482e054822630f30019cfe8e6d",
        "9a34102750397f7801162dbcbd097f0b79ffce1668f350c02c74979c89a29cd5",
    ),
    "cg-jacobi-n40-b16-warm": (
        "e53d991f41c124ddbd67ba118709672e5211f2ba6cff4a3befa3ebba9473cfd1",
        "6f3767dc4bf1488f746ff6998a5c77bbeca5229228b8eea2ccf5f43e5c6642e2",
        "b11f34b9a3599ef15e5d17991776fc8658e8da37edf18edb957701f94eda362b",
    ),
    "cg-identity-n24-b1-cold": (
        "e365db6dd06447bbd01a2e7a1ced10206d4f41ac7589345fc272a6c86338bf50",
        "799bfa09a654040bd15f0b3c993dd4247203b8e660e906c9ba4bc2b6f4718df3",
        "557a6f13d003790990ed3d1c16408219e1bad799031c919c0a9ca5bbbba7afcc",
    ),
    "cg-identity-n24-b1-warm": (
        "16e07642bd3340469f8250490305ed1880399e3cc8591654aba84427a74d0c3b",
        "a0b663db2e22aa75fdd6175ed443b3a4572956f3f7684b40bbc21dea5cc3a11e",
        "71f19988b1187c239a874c2753342ffa565973a2b2bd9634d4cb21b3e5140978",
    ),
    "cg-identity-n24-b16-cold": (
        "c6d4b8cdb117774e838a516c17a6638f7146adfa154fb946e8424ebb80717404",
        "063c2af6741daafb6bcbf70a39456e41a8a3e3f2f981aba497febc8e2d37889a",
        "e66a781651512e15d874f90c29eae92428c22ccb015810c0dc7f25f3c7d1597c",
    ),
    "cg-identity-n24-b16-warm": (
        "55e11e8c0fd5a4d9c90897624889a68073ced7de50795f96d82f3747ba64979b",
        "25a136ae7343f8003205ec7904899e17b422ba677c33c2c34a44c7f0b0853111",
        "e1e0317f79bf1184bb02bcd514e5e04b7b164dc1144171e1da6d25ae65414684",
    ),
    "cg-identity-n40-b1-cold": (
        "f1cdfbad61538164b4a11ce4d99c76f5aae6512afca7e1c724c59feb5e62bb4d",
        "1bea42bae964cfd7baffd4d8553c3935aad24ad431ad581847cd5e6542958b7d",
        "54c9b6510856193c277a2da4da88945241eea74cb45406bfc84fc4d2f9bd7722",
    ),
    "cg-identity-n40-b1-warm": (
        "e56ae81e385b5e2537b3bd3d100d00bcca194e6bfeb5033fb410cbac93ef4eec",
        "cea742b49f33600b267aa6ab8ab5e3a7217489942a7f29115c09724bd9761492",
        "247e5fb7aa0cf7210bd001dc8f9aea1bca0c0c43613cb614701bcf0181c716c7",
    ),
    "cg-identity-n40-b16-cold": (
        "627d9f90f8fd89534061d727d2e7b8768ff31a2d13376f9a7276b70de243f048",
        "27d9820125ace662fd196501f4628662d9aea4d5b44078ff63edf34db109d43a",
        "45e7ab80ad61252062e9b8781697f9e9962d6cebbde43f76484b61cdd704bc23",
    ),
    "cg-identity-n40-b16-warm": (
        "e5fbe310505c3ae48deaee21c01f40925049adede4e69a70bc150ca71a159025",
        "1c4392ddd1d8833153b3a284ea497e58dd1bc1c8ab454775775e1f541d5b9582",
        "e4545adfc34909585ee6f411cfc223406b11dd75ce384608aee84e5aa9f1f911",
    ),
    "bicgstab-jacobi-n24-b1-cold": (
        "3105a1fa9b05409c206da84c60c0b67bc61c8871bc490f1db6d879646b158e67",
        "c51e5ab580c3f566fe6b12ad8925bbb4c5bc442c0e0a9fa5ac3d4dc8791e028b",
        "5b83f88dffa61bb09014e969ce186c16596a69b6cde6381ef49fad7a91157fa8",
    ),
    "bicgstab-jacobi-n24-b1-warm": (
        "24cdedc3d200a77280280069261669b8f2b95a9322d912445a5f4e1c8ca7f86e",
        "5e8b96715c59f858e293cb4a42f56e812bf07d05c4bcb85b0495699f1e38000b",
        "d3f95d6a859845c40ce053a5d44252695bef9602e54b3e0cfad54caf24df3c8e",
    ),
    "bicgstab-jacobi-n24-b16-cold": (
        "e37540e8b249c09154a20031b9bd23b055f12c25fbca73b4c1862dc646126274",
        "3b0725139373ddc524880e18cb25ddbdfb1bd1c5bbe948a64f0285406fc78ce1",
        "46d7a10d0779b9ef4dd492c77068ec1cf549bf5c877f07809c99b0d7dc365ec5",
    ),
    "bicgstab-jacobi-n24-b16-warm": (
        "91fbaf0075a6866f5452fcb2b0884b4bc45cea20a64f5784426f16b03b32eaa2",
        "7935068b7f713e4be0588a3a8176405be05c9b3153bd4ca53dd2357826bd0172",
        "3fcec5a980612d8cf3a729fbe0fffbb67fdb09454346a5ff9cdfb288a23f7d6d",
    ),
    "bicgstab-jacobi-n40-b1-cold": (
        "2a92d13e69a03cc26ec2d0322d57098dcb2a5d4bd03f1c408bb943e4f0e4f01d",
        "3072f4e575dbd8a9018ed98dd845af0ea8ae0ac97fadcad7db253bd5f5b5bb5a",
        "606d914f34a042bcb9075a65d998922fca53dc8005e3897569ae25994b179fa5",
    ),
    "bicgstab-jacobi-n40-b1-warm": (
        "0d485580468d31eaec536ea4195cfbc84eb05b3f19975abca93b6950bc4e7b83",
        "19265f03c057e7dda895a6a85c1b453b2e095946e9e799e3a461543218f8ac96",
        "2c68d5c8ade8288e27289561178d792b7bf3637daa6cb40d581674a2b43d268c",
    ),
    "bicgstab-jacobi-n40-b16-cold": (
        "6d9f10fd5375f55f1e43062bb977130e0ca52ead3859a6637dd93bfacb24eeb1",
        "8b83f888fa23b1fbd91d4ad211877e0666f9b1b37fbbfa452dee045be1280717",
        "f86cc898d3947571039a4c91c8391759d5f9db2976a596823fb56aa7da818963",
    ),
    "bicgstab-jacobi-n40-b16-warm": (
        "880cea88aa8646c98825fcd5681cd236cc36561bde772725b6cf8af0acd3ec10",
        "7ec6c9b2ffb080dfaba7279cadd4529ad37a9eb9079befaf22526e328b2c5689",
        "2c11774bb5767e78b9a2aab42268a34386a9156bf7c53d8fffa6618c388aecd4",
    ),
    "bicgstab-identity-n24-b1-cold": (
        "31de8de5157d1af3100da32de664c6fc782bbb5b848f84612db63b5043a05693",
        "67f8aead84541a9a569e5b3d077df164822935a2af5d2fe4682e3c3d2d77755d",
        "a7631664a0492361387200c0b97c192b6fe5b9da0b51a2751b78d35ab61d9410",
    ),
    "bicgstab-identity-n24-b1-warm": (
        "7d6606149c7c5777b64437a8d9fd0412155a71fce76418cb3679e6dda4ac4bb7",
        "7564891f2db7e3a9b8c56200cde6e127d1d53afc6c3006748b63aab85351f2c3",
        "6359eb61d0ea3e99fd6a3ae3dcd265b176565064ad550eb962e4162911eee7b1",
    ),
    "bicgstab-identity-n24-b16-cold": (
        "a40b208e978a2164f8130683ba853d0ebd2646c6e2e9446260a101b4dc968b17",
        "4aaf1f7f7ade019e00e151ec7238613fe21e971e4325accbcfd7846a193d939e",
        "9f610179577fcb559e0d88e6e555600ab22a642815db72c07f4f6bc186117c5c",
    ),
    "bicgstab-identity-n24-b16-warm": (
        "4eec8d83d059728658f8a138754e920d8249429c1caa75188bb075ba991a24ad",
        "c8aeaccbcf644523d53893b5381ff7392ee7b35593d230843d009da1b90a5fc3",
        "d87001242977d04369d7285cece336096fe060f57e731bb18f65a4ae849e5c3c",
    ),
    "bicgstab-identity-n40-b1-cold": (
        "84ad7496055fa7f31df58e76e5492e957849c41281cb7acf2ab50047f36115f4",
        "061867d5d06000d5d8d3a658eb38aa93ee64a2aa75d4b2e6069724d9cd2ca3ad",
        "cb0e1243011149cb24c21e41bf66a2503a9307c9d9e117d2a00b7c4223cd49e9",
    ),
    "bicgstab-identity-n40-b1-warm": (
        "ff55ab78ed9252110796517225f6c6547cca1c62f39c3c726eff9dd2d08552aa",
        "ad696643b4b6788636d65939c46b8309fbf0cdee8cb3c391ab332954c991450b",
        "3ef4a3f75e1d39a05112e9c650130bea0344ca990869bf076821185ef0913247",
    ),
    "bicgstab-identity-n40-b16-cold": (
        "a2916bd3d7b9b7d88057ad04366bb520d8afb58a51decdb9a23a7e73ffd931bc",
        "bbb2fd10c3ac17f6016b5520fa9287ab7441b59e14c6c9a3e7a17194f4b19b4e",
        "8bf76953468849edfb9504ca3420989e014330fd035cb6ac02ecd7edf881e6b3",
    ),
    "bicgstab-identity-n40-b16-warm": (
        "3025b12ce54b7ebda116ef59b494ef677017aab16ea38ef52c5c6a25c1b4f9fe",
        "c5dd2be0d6cd3420247ee52c34dc49ce3a3163356487286e0fdf9ddc80bc3b9f",
        "9b68ef4adf2ca767bc84132f70953cf230a31e7a958b93f949762a07feb6980e",
    ),
    "cgs-jacobi-n24-b1-cold": (
        "fc134a4eb161856d1636e1d1332dcc15ece9c240850edc7e78eabaaeeeb73800",
        "5b58e8afc390e61c99fcdc1ffda7ea160cd609ff8af45d812b23d2abd60f675f",
        "826910bcf9f40878575c83cda7d1eff58de67215dfab07ee6b0676ae37173bc8",
    ),
    "cgs-jacobi-n24-b1-warm": (
        "531b11d7b3bd4309a3d5e96a15cac6a4607c65360fc838f002276b5f790f8537",
        "8ff9c057b0b49483555533f48b9081dbf42835d831a63472dbdb3dd4afdf5be9",
        "0e77d193fb64f12e8c74dc4717e26a59e7abd82a54730d9a10244faefb8a3451",
    ),
    "cgs-jacobi-n24-b16-cold": (
        "692ffab6ff8fe16ac8e5968fa3f65f256aa52673a24b179d1de1e3ec0a2949d0",
        "f959bcc9810af1457592d6c056de015767f95534ccb00d10918ed01ba00c1142",
        "458aac496e7f265d3cf97341f1ac8520de0e68db86c679dd2b021152ee7bd2b1",
    ),
    "cgs-jacobi-n24-b16-warm": (
        "78808313144ba01361b720330a0486518c031d2494245a2ff29677ad4e2b80d8",
        "dcbc56fa700ee08ef96815d7f687a20e3d20d2ee6dd649a69546199df130fd4d",
        "1a281c7306bd9004ade80802d91691fbdf1988556fa1cb3e0ada1bc0e916dc06",
    ),
    "cgs-jacobi-n40-b1-cold": (
        "2c5413b8f102b69623b5b11a5deea15b6ded20cb2e042b296183745a0e474edc",
        "cdfb14811106d5c2b56d6e7dfc2544fbfdaf7f17f3605dba07875bbf8f68c195",
        "e1ef4543060eb03eeed2c8be30201a4a95a22f87d8af4570c6bf54b6f6b022c7",
    ),
    "cgs-jacobi-n40-b1-warm": (
        "206666a69013b8a16faac2b6736989a25e9cf2f0681a0ece797ba80565127277",
        "5cafbe621857d03fdeed4c103d7217be7f38ce9d372d3c16ae6f7fb3e6d4a573",
        "7c17d631de5e1357e2231e01ff25fce6301bc0169a7974b0eeee1b49a90622ed",
    ),
    "cgs-jacobi-n40-b16-cold": (
        "220942eb391512951225957193bcf3b6aeb070f0e8a79aa344a52cacadd723d7",
        "8ed30c66be93d3cff75fa9f136d4f2b9f6741c33d3c646c5a78ad00486de6818",
        "5f89ea052f164abc2113a1559de1964ef5c1ff51773ad5498ead8661c2798278",
    ),
    "cgs-jacobi-n40-b16-warm": (
        "ebc8d4074ae14fdc582d68471cd45876316f7861ba766ce4833387f8bd03aff1",
        "5ad1912abbc971cc595f21ebf0e2ad08cdd053efc31d39eb38af485d006e1fda",
        "06ce30ce34ae580a3af60f585dd04be3e2481d93213ae9934faaac816dfe492a",
    ),
    "cgs-identity-n24-b1-cold": (
        "12b5f2ef94ad9853fc59336674d194486e5657b359292fc36739c39283d6f4d5",
        "736d926e467332e90f44a01475d9575bfb7022c5260d2a2106d4b351f976b28f",
        "9362495c14fc7c0776a04bf01a1b17499b9f5be805a6a7e70ddae6bd4565bbb6",
    ),
    "cgs-identity-n24-b1-warm": (
        "0684f034245e747973d537abd792d0bf654b1ea2278e5570cf8911d88e6e626a",
        "348625d374adf8cab355c0d3cde09a7090ba146946c1ca1cb24da4a416a629be",
        "831df1461e23bdd794dc11ff631162cde1f4f0b77c826bdf85bb9ed6dd5153b9",
    ),
    "cgs-identity-n24-b16-cold": (
        "9e39fb2c7e20cd35509f3c60764b80eae4382b558abf968608e9452f24ed85f4",
        "2e2a7bc92d628f7a118a1c6461378e03a8a48190a4ae35c8c43e62dcd80caed0",
        "1f1c1475703a6b6f9003c4e946c2d79d350399921c4c985a6407ab203fdbd4ae",
    ),
    "cgs-identity-n24-b16-warm": (
        "0d5ec8956ae5babf9c28d0ab1c08e5cac04dfa48eed7e1cf1d9fb63b799afae2",
        "72d9d1f1523e50e014e6c93756077207758476faeb42ee134bce1a5e5d100491",
        "2bba609507df3bdf809c5feaad5951f90aed8cfff36c777520bcb4d86eedc2b8",
    ),
    "cgs-identity-n40-b1-cold": (
        "4205b6574d2247efdce827067eb4b34319e67e939f74407a3df8118843f86bc7",
        "b939b8cfb5ee57c38e722485a29e5c3a991599ee40f69b4e6ee5f1f4b490f6cb",
        "e9f6f25834098d0a879449c4f244fa8ba2359c8ff6ab423d4e74d25b27568150",
    ),
    "cgs-identity-n40-b1-warm": (
        "93e002dee8583c213811bb7ca8b44b3dfda014dd59dffd9f4e19d91e4dd1ce0b",
        "e8485775898d1734e0dd0a2e23e6b15a814e7aacc228ebaea3aacab905b2f7cb",
        "45d132d264f5fb24191e52f007390ea8125cbac4b36ec2791c5ed74583cdce2c",
    ),
    "cgs-identity-n40-b16-cold": (
        "cfc6d3f7d7f6c24a047055226da1aed4d8f495c6eb2f474dbf9c1371e65d585c",
        "30184e13ed468e55e8cf7bec023459ca2502f79fbe94a3e8934e042d6df20acb",
        "4436063667a17b03cd2a6f7fff76bac1e9bc780f3f0ffad7f6caf0f6ccfaca18",
    ),
    "cgs-identity-n40-b16-warm": (
        "b6fc99e128bad67a078a1cf22a317775f2b26e4cf24d0496fc0d7d8f38444e23",
        "82baa0ac1b84b1c262a608acf2ba1749ec23a38579dca25c88869c706f55d6a4",
        "124f5579f706fc128f1a5684b57b824d59e0722d904c9501bc2338c6c838ca84",
    ),
    "bicg-jacobi-n24-b1-cold": (
        "4e1de923558bbfe825e213e2b663295f088a0a33d5a762c8f65f891b4e5883f3",
        "7c01ba816103fa2a0b41281eafd28edfe41e01bb568480267fad6eb5fcbeccfb",
        "2e0f1664c743f7098c94bcbe8f9b299bc3ec7a2f2cc276b26bd974337e1fc708",
    ),
    "bicg-jacobi-n24-b1-warm": (
        "25114f6954cc836d26a7050c8b98648d88a268a0dc2b2769a522ec2907077845",
        "43c5b9d7bdf91ed17b4e3e909fdb504638edf7671f562ff3fab4fb783aae453b",
        "1b70a8653aa75602ccd077b47dc85a870ca627acc60745955f77061807cd05b1",
    ),
    "bicg-jacobi-n24-b16-cold": (
        "5c1d2ea7079adbc6db4d81efd3614293304302bb9e2b15e37a4655f6339268e0",
        "fb6b8206dafc1a8993f80b945fd60438c0138fa9f8c7f244d053b61d72d8e290",
        "32f5cd5d3f41a0c6b165b8203022e5c1e19d3ce5f864f2317f677924f19865b9",
    ),
    "bicg-jacobi-n24-b16-warm": (
        "c327fc09486bc20c4e87dba1e84fba40491b43f1c098a41040f41ecdd6e7192a",
        "3d581a6260506d37713a2a8a7d2f985421a4841bf60c035df45d195c49c695a6",
        "bce5542b611cc3471b56ce24773b0bf569adb1eec4afbb2bd1354196b752592a",
    ),
    "bicg-jacobi-n40-b1-cold": (
        "9267833d2d91276a218cdd72eeb1dd17a3b85c3fe8d3fe6f0914a07596342aa0",
        "b9092e37873a4a5002f57ebe377180a90bf9bf1b894ad86956ea1cadb249d0d9",
        "0cc3fe21fd0edc5e6df1e4aca943d2ca824176269ccd29aedc958b36b69d63c4",
    ),
    "bicg-jacobi-n40-b1-warm": (
        "921970768d8e1eeafe2e614fc58d888fd836610d1397d0875ef54bd860e13509",
        "dc43e85f1d38e8a8c30c33348e67ffbe9161d881abda1da74b85021c8e3a6aa8",
        "e6b894748a2df97e2a1f9ca44544e95ae5c7d43389d40ef8fb08b55e0743b513",
    ),
    "bicg-jacobi-n40-b16-cold": (
        "7df98a9e46a44b63c2bf127f0d327d6aef6b4baf5640058db7cbd318e619085b",
        "26a5439222a3094e2deec920f9096676d1bce6482e054822630f30019cfe8e6d",
        "784a8ff9ee06eb8b1e8d002a564c6f2118920e957395cc679c092422ca108d4e",
    ),
    "bicg-jacobi-n40-b16-warm": (
        "e53d991f41c124ddbd67ba118709672e5211f2ba6cff4a3befa3ebba9473cfd1",
        "6f3767dc4bf1488f746ff6998a5c77bbeca5229228b8eea2ccf5f43e5c6642e2",
        "381ac807b4c99830a720b76ee65be9c1fa95a259b0aeb8ec6681dafd9351ab2c",
    ),
    "bicg-identity-n24-b1-cold": (
        "e365db6dd06447bbd01a2e7a1ced10206d4f41ac7589345fc272a6c86338bf50",
        "799bfa09a654040bd15f0b3c993dd4247203b8e660e906c9ba4bc2b6f4718df3",
        "60c5698356d7feff9040580df2cdc2310e1f04c598a5b2da71566b4988a3dc87",
    ),
    "bicg-identity-n24-b1-warm": (
        "16e07642bd3340469f8250490305ed1880399e3cc8591654aba84427a74d0c3b",
        "a0b663db2e22aa75fdd6175ed443b3a4572956f3f7684b40bbc21dea5cc3a11e",
        "700520dd071265afe4756be7a7f773ff0937f964d8ad15c7bdf51ba68ddfb258",
    ),
    "bicg-identity-n24-b16-cold": (
        "c6d4b8cdb117774e838a516c17a6638f7146adfa154fb946e8424ebb80717404",
        "063c2af6741daafb6bcbf70a39456e41a8a3e3f2f981aba497febc8e2d37889a",
        "b09d6c675a38078ed1118565f91a79ee8de78e6be42a127401006d2c25f9d10b",
    ),
    "bicg-identity-n24-b16-warm": (
        "55e11e8c0fd5a4d9c90897624889a68073ced7de50795f96d82f3747ba64979b",
        "25a136ae7343f8003205ec7904899e17b422ba677c33c2c34a44c7f0b0853111",
        "9a0549452b98312b9f116455987bc4523b93b5de3ae24bde5aa7349b75cbdf88",
    ),
    "bicg-identity-n40-b1-cold": (
        "f1cdfbad61538164b4a11ce4d99c76f5aae6512afca7e1c724c59feb5e62bb4d",
        "1bea42bae964cfd7baffd4d8553c3935aad24ad431ad581847cd5e6542958b7d",
        "187a96fd139e0f4943e5275ce76572b6e4979f2c1639fb998887072e315afb6d",
    ),
    "bicg-identity-n40-b1-warm": (
        "e56ae81e385b5e2537b3bd3d100d00bcca194e6bfeb5033fb410cbac93ef4eec",
        "cea742b49f33600b267aa6ab8ab5e3a7217489942a7f29115c09724bd9761492",
        "9c71467efa8bb42226955f59976c8a95350d38e461eefc8fa989b7c74226d818",
    ),
    "bicg-identity-n40-b16-cold": (
        "627d9f90f8fd89534061d727d2e7b8768ff31a2d13376f9a7276b70de243f048",
        "27d9820125ace662fd196501f4628662d9aea4d5b44078ff63edf34db109d43a",
        "1a9192b4bcc637205af959e9308e5d2de1e0121b04d31b134f3948c22538f149",
    ),
    "bicg-identity-n40-b16-warm": (
        "e5fbe310505c3ae48deaee21c01f40925049adede4e69a70bc150ca71a159025",
        "1c4392ddd1d8833153b3a284ea497e58dd1bc1c8ab454775775e1f541d5b9582",
        "23e6fabc44b7a5fc66a39a101e97066c03f3f723fb56171aa74325f8d33dedc4",
    ),
    "richardson-jacobi-n24-b1-cold": (
        "239814ac2596439eccf7a75ea702e15f4c2dc55b17efc6e5db20f4574d3f9d39",
        "38d5712f2cbf529b8b14b0cfe15786afb12130f34de3abcdd833a9324b3fb23f",
        "2a544070100b2049b2bf67652703bf87207df6fcbb2fad05dc48048d060428c1",
    ),
    "richardson-jacobi-n24-b1-warm": (
        "6176263c76bd584c37e0165b72051ecf5167636f8e32c2f7d4bbbecd881b57fa",
        "42e20ee8f37805aa5d277f29792f3da7a4b9e76b9bed5bbde1b87e5958c79dba",
        "5d464dfd486e15102d871b23bcc0da9ef93beef94c474b4a9a41662523ea62f7",
    ),
    "richardson-jacobi-n24-b16-cold": (
        "68a3db7d35673aae87651d0d59066e1ca2a0eb1d36c8fcf901b0f54389bb8a73",
        "a0cdea1fe3180ac880f955fbe162b18526c3507cc764b74797603705f08ddd41",
        "287ce9681bf82c6d5f81e906677fd6ce2e0920cab76894ab67001c24f64d16b7",
    ),
    "richardson-jacobi-n24-b16-warm": (
        "dc9ad158e72f55c3b5bee107a55076c8018d15cdd5100be5ced7b361a591f9d1",
        "83fa5e047f693fe80fc61c5267f047df5c32685c6848dedc0a37d7ad7db19b55",
        "6bbc73b393c76567fc96c6ea43f8346847095d059ab7a205bdff1386b25fe28e",
    ),
    "richardson-jacobi-n40-b1-cold": (
        "b452264dfb6aac4308b36c0333ef5ede60eb92b567c2c000f2310a6337e934da",
        "7e8a7bca51419c2ebbcfd25d63c2dd81f464a1735fb1063378dd0fe480fbe099",
        "edb076a93fd3d388e81351dae065576baf1fcb7b4909371b281ad20d031a0067",
    ),
    "richardson-jacobi-n40-b1-warm": (
        "30d0c37b729313c3fe91e259b265617f2a3e17fc8c2261b760752577ea98f134",
        "c5b2142636353b0739eb9d6b17588ed748991ebfa0646fef4c65dd8becf69821",
        "7294100fcf64dd92d80a85af0e8ae41b0a6ea2df8d2fbcbe0e0ed80bbec7fef9",
    ),
    "richardson-jacobi-n40-b16-cold": (
        "8c170d9fea1718b3084263760aeb856d00c0e36fb2c2a34426fd87a0cb2596d7",
        "34130925d8be69bb337b16efba27b256f8d82f398055022f36350a24622f07ff",
        "a1155425459a805e9a4b10f28217a2f2757fcd1a4245ad741ec1dd828031c69c",
    ),
    "richardson-jacobi-n40-b16-warm": (
        "59a1931903d9dfbb2df8ce3f4d294bfdd12cd2a95bbea80ccdd2d658f679635a",
        "f9d0a406b40f2fbd2665c34024671850377f3fc72b77d1e9db6bdea865ca8885",
        "88096a103c31fe763ad0fd288c3d9f430112d21da80b816426ebdf99988bf0fb",
    ),
    "richardson-identity-n24-b1-cold": (
        "913c11e0efc2eb7441528c4cbd386bd707d3883ecd224a0f968dae787e8f874b",
        "6ffb479b0cadfc4fbdce175561c206c00d15fe6ea2f3a6bfd4e369be5feb3667",
        "179165bed94d3888c2f7774c21a137f4076c4001ee372175d76e93124df4d252",
    ),
    "richardson-identity-n24-b1-warm": (
        "645ee8d268c37562b77f9e9c0e8e37f25b88a4b9569d1e7bab1866f76de487c9",
        "8defa60ad78f7f3dffceebd751a3b734da51133df3148a5d3434a398e1765781",
        "0b25571c2d0dcdb171cef392b4409f32636954ba4a69f5465ab0c37fe983909d",
    ),
    "richardson-identity-n24-b16-cold": (
        "cb69be55fdb47e41e7ff9555581a931f3c2d9b1a5c30d197ef38ffb43731e6b6",
        "5c923375ff5fd1e8afe84411c0fec3a68b5b30d05410e9b1072fd15ea9e59229",
        "1ff2488b977319e0146719f4f1421418fc0ddf1e375bb41e8a029ac211690519",
    ),
    "richardson-identity-n24-b16-warm": (
        "5832a54337201fa732928c74afa12ebbbf522664f0ba433100daf648dde5e9d6",
        "725d2a57af49c59ce614c9f1a394f8e76b808bcf9edb8b2d7ca9f0faf3d18e5f",
        "12a13060c3f815d7255dc450d5b1e961714739f7b09c796a72b8c538236c2b0d",
    ),
    "richardson-identity-n40-b1-cold": (
        "ef52f0105c620fe10811cc721714d2640ca8b35ce55af643a6bc43a0b106ddfd",
        "959ac67cda2a1cde64acf413235628e167a78049141f398d7582df517136e1ff",
        "46fb8e59d9ddda6eb876ca778df28f8f4fea58fabc94dfcd672de31d9a575027",
    ),
    "richardson-identity-n40-b1-warm": (
        "86d0cb823fe26a412fd5900197b97e6c5de657b08403b1770bb7ad42d223cbc2",
        "4719e4e027c22ec276771f2f6cb1e6891d0625402e38643871fa6903398dba75",
        "893e7077e28b4e2dd7cd1d4cb369bdf71bf4145fd665b79a7fb83e054db9944f",
    ),
    "richardson-identity-n40-b16-cold": (
        "cf6bd8aaebddbd805cf15cbf2f592d992b90de320a2eb8f916a1e984d9555df0",
        "1a03e5aa7d7b257e32cf80c24e70ea962418a0ccf010fcebc059eaea95850da4",
        "3fc83fd1c5d1f9e86a319d404bc5bfe39a3584af196a2093f790cab101395019",
    ),
    "richardson-identity-n40-b16-warm": (
        "09e4d697832f3551390b5546a095b1fe80a1282ccae0be0ec939fbb43af2e19b",
        "aac049638773aab6dee6dab791b95100fbb8ce1eb8d7afd1a50e345b774f71ce",
        "8ae357a05f06e28609e39f13342b32cb195ddc1cec46d0a070377085a33a94da",
    ),
    "gmres-jacobi-n24-b1-cold": (
        "846339962203d652aae258478043b320a0c081cf9103a6e446f1b30609b71076",
        "fcbb70e1c4a2adbeb9f2be5d7b4c464ffd27e77a6185ba101a98d2882c1d2b39",
        "44c59694e28528a75a5e3a8717e1449f027b348feb323ce389dc7ffd65bb13ae",
    ),
    "gmres-jacobi-n24-b1-warm": (
        "fff715cd7ad547c690abe1ba6669f2be495b142a7a109f9d2eb5286695806227",
        "3f3dd69bd57262eeb14d478f37768ae9ca61cc1cc9a531f3b267554fe5e4ba0b",
        "c94c4226c1f52d00b3605e83df60bb9729961ca8de90d28b223168f64ea94392",
    ),
    "gmres-jacobi-n24-b16-cold": (
        "22971de3d364e144ae659f05edfb8572c64d6cc6fe60058a65a3e231709a5852",
        "e8c2ac9bbc923ee20b7ec292d856abd628c3489e755f8742ce6697256844897f",
        "582492cefb87a36112a3e9ea7b30934d8f413a6d60f20d95794dff1a71b21abd",
    ),
    "gmres-jacobi-n24-b16-warm": (
        "c7b47931faf0e285371d97e7ab2a42f4e9d3fe931e474c6129f0b30c51d766bf",
        "ca61b69bc66e345c1181c7b63fc355c8f3e194f0aa7decb5cdb58e405eae5483",
        "f9e245b3fd36c25659fed8c1ebb87938c837787e0c654132e6167730317c6313",
    ),
    "gmres-jacobi-n40-b1-cold": (
        "9fedc8e337d9411a474bdd9e26337f436f4b5cbd63a0b9e5385a4850a364c4fc",
        "09c55ee4c8d83086fa7bdeb0cf3b8aca650c6da61b97a063ed1aed0cc255df73",
        "339b3ce3ffd6053a2493ce19706811fae1d9c412fcb368b767d6c68c0f8a345a",
    ),
    "gmres-jacobi-n40-b1-warm": (
        "9147f3c5dd413af3688815e436ae0ffa2c4ac9ac11e662a97b58fdc1e8474505",
        "1e614e36e8aaf8358b3b22fe9b996133ad013c8497750388e41680e4827d6f4a",
        "9cb4c661ae34c77a5d9cfa0a0e719864b8b7e9920bc93f54548334fcd8a5c962",
    ),
    "gmres-jacobi-n40-b16-cold": (
        "aa37d2433adb58bdd853a79199c48983c85945cbceac8c1d22994d06fa1028a3",
        "1bbfb5945da61990f8d5922eac2831257b10bbd7abda458fa6326f71f9aad604",
        "ec29f9637b2ac3da869ac995069ff6425a98f818b3fdeee53fcb2c57b1548f7e",
    ),
    "gmres-jacobi-n40-b16-warm": (
        "f782564923fc1d7f10c56a8b9d618d6d389765eee1a127fbf8e26c843ecca4ae",
        "7a99bb7871ec7a2a7c3b50912c98a6108c5cc41f0aa1d1f33e1407ef08bc2639",
        "09203a1a289ffd4e83287221cbb1df216d9aa56b040f82a22bebff35aa6affd1",
    ),
    "gmres-identity-n24-b1-cold": (
        "ef01f7e242a45a6a1e3fbd34040b799566a47524432c7c8b11b77010991975e3",
        "e6305dc1cb81d61d8d668c1855e1c6e4a034b6fe77494b6c9b263ab95f088da7",
        "88288505c7558dc52b74483031d97ee3b046fdc5155c0e3d5660c9dcff433e9f",
    ),
    "gmres-identity-n24-b1-warm": (
        "c2ce50fe004754aa9bfa045961cc50146662912b8455fd8468a95dc68c0e98ca",
        "4e4b7e64e370136adf62d02aa709ac8a5a9c28b00e85e70eff625ca865591562",
        "543748212bd6cc0780e34aa20363b779762bb98240c900b70151799ec86877a1",
    ),
    "gmres-identity-n24-b16-cold": (
        "099850f8a1fb3f411d2168ea33d99a000fe70786d45ff5d14a6392076327b379",
        "8e026b3d6d3a768ee93b1588836688b5345fb4797e6d6d09a501c05d2d313698",
        "1596b9b9d3a8971f608d3239c0d80fe98ea396c9262a366cf74bdf90edd28c61",
    ),
    "gmres-identity-n24-b16-warm": (
        "86a5942ec25ad424d5b3f6da52f92afb7ae4a2c2b660d94e978f88b7c814f43b",
        "47e5739d9bc148c71adc2a9804d59e16c05644026a136a89dd4c389142115c5c",
        "7c4855653cda6272b61ff54ef62d9f5229a9664fb34aa6a4d5b8b057a601affd",
    ),
    "gmres-identity-n40-b1-cold": (
        "bff520a7454489df0f2506249b0fbd9d9384739c312168f48aebcc86335f49e4",
        "dd3998e8cc1365dccb0056dbc83f16d48e8fea09451442e31e03c0df8156339e",
        "38289d594b2ddea94617746528c32c087586f477ee51b916460e51ae1dadc889",
    ),
    "gmres-identity-n40-b1-warm": (
        "4d914004a460f4b4fe2534a2f777a900867cf85afbb649eb09d473ac5ee64985",
        "682b3e57fc8521aaf86bac50027b6bc77438a4775fc6b006931045c69111a956",
        "c031b5457eb77bb8ef6718a261ee22f78ab0415d265643eee48d281f4e221ddc",
    ),
    "gmres-identity-n40-b16-cold": (
        "b8ae72bbe8c3625cd7c19fa698397a4c2b70d124f11abb552f266bc04f8e520a",
        "61df7448b641c0203be5e58c3c7fbba1addace123c30411761adf76dbe72ab90",
        "d2e0c961fc6169914328a467998cdb8bf79493b49dd43c5a2e4cbc01bda036ee",
    ),
    "gmres-identity-n40-b16-warm": (
        "66e5050fabe3cd10dd780296fa40e82993277063e14539b51c7ac021db5c6faf",
        "a9717650b2ba37ceaa5d63ebd65d67136edc813023da880c0105865b3569fd91",
        "dc1d95b1bad9770fe4062870d98e6f838b234f35ce2f44fa8afd6775c81aac51",
    ),
    "cg-jacobi-single": (
        "a5a4bf76b630297fd8f0900ffe80680c533a39d2e9e9aa4df97611849e005411",
        "627668687239051edf47274280427a1440e3ecbd786fa93eea716f835c11c923",
        "66f88be82ad3cab6022772845c55b8e8c40a7e85b5127ae0125d75016a7320ab",
    ),
    "cg-identity-single": (
        "c606aae6a8cc0835c07b01833645fc453d829af61adcc263d8cb1609850ea8b5",
        "261b059c39720043d1b9fc04df8879d156c2d0ccbc13885042218c6b1662105b",
        "e66a781651512e15d874f90c29eae92428c22ccb015810c0dc7f25f3c7d1597c",
    ),
    "bicgstab-jacobi-single": (
        "164b3020fc85253dba5f9b4d27fc7b0fbf096cac22dc2052ad3150805a365cc4",
        "1c3ecc0d9e145e6fb89422e1a4989a230d9b8706a3119a0ae6bca3894c608b6d",
        "46d7a10d0779b9ef4dd492c77068ec1cf549bf5c877f07809c99b0d7dc365ec5",
    ),
    "bicgstab-identity-single": (
        "f045c9ed42c2a02ce08010641e29194a7d1f5779f477a122536318d80189874a",
        "0edc00bb383c5bcc74852247ecd992432883f3299343bbb062cb4bbe8d590adf",
        "9f610179577fcb559e0d88e6e555600ab22a642815db72c07f4f6bc186117c5c",
    ),
    "bicgstab-jacobi-drm19": (
        "27835683cd3f90b94c771fa988bcaf02009860c08439771698f9a3b8a63a51cb",
        "449efe2b5366eec5c913dfaa3da9bc8d93d2636654e9791b2150258e274b255d",
        "6d058294071886f4a3c54d0eaebb06666893252825f3b7180eac3c8b79d0f610",
    ),
    "cg-jacobi-zero_rhs": (
        "397368d721ed727c32211f7772a42152524823abc88ce3ccde1624fdb0be6ee8",
        "8e9f57c0795da1bcfa1fb05641d4abc5b8387bc67f3ae2e80a92d4760542686c",
        "7c80890f15b8b0305c05a591bce0eff9697a5352da69e85d7e3c8a79d07c2d21",
    ),
    "bicgstab-jacobi-zero_rhs": (
        "4d094a903d76212447d82d5996f59fe6865433c9fdf635fb43672c183fee24ee",
        "154ec7de749b44988b73274b253bbffd6555be6ba07b3950f338793c42fea89c",
        "3c7af2894eb4dc84e5d9d88e75bbd47c76a9ce3e6af62f8f9490a582f3727974",
    ),
    "cg-identity-breakdown": (
        "4bd0550ccbc88ae7ce6d7c802c2b2149d79a2fcd75581c3abb25fbfe364e59c4",
        "7acf7504e0d41a6068181228a049a6be2950938cb42043f4c4ea72039298deae",
        "ceeb84bb58339eb22382e07862352aa527df14bd7f0d059cd334ad7a54737535",
    ),
    "bicgstab-identity-breakdown": (
        "0cbe9df667756eff5c3e99ddc34b977a1f5390517fa9cfbc2179eefa88248b25",
        "10290013639f6756863937dc7b19cc704ef155717fa23640ae5f9e863a9e0729",
        "e5475cea06398a67d7668ebe68e3f6d06d3f4b666ba08ebdcc6f72d5992be45c",
    ),
    "cgs-identity-breakdown": (
        "e6e7239fa0b4ecfda3b7e4967dd541ce915636338020b745a5b4874f4e1c3d5f",
        "d889653bdac4d68388358a1a2e2de04639df2703c0b834a1dd924f9ab9fd2ac1",
        "7e881c3519f7c550891a3b2ad740c4d1c37b02f961f2b6f01cbb7ac7e90ea98a",
    ),
    "bicg-identity-breakdown": (
        "4bd0550ccbc88ae7ce6d7c802c2b2149d79a2fcd75581c3abb25fbfe364e59c4",
        "7acf7504e0d41a6068181228a049a6be2950938cb42043f4c4ea72039298deae",
        "68f73848ec92edf766ed27363c83b8112d48b0f50419e86ceff0097d59730717",
    ),
}


def _cases() -> list[str]:
    grid = [
        f"{solver}-{prec}-n{n}-b{nb}-{start}"
        for solver in SOLVERS
        for prec in ("jacobi", "identity")
        for n in (24, 40)
        for nb in (1, 16)
        for start in ("cold", "warm")
    ]
    single = [f"{solver}-{prec}-single" for solver in ("cg", "bicgstab")
              for prec in ("jacobi", "identity")]
    zero_rhs = [f"{solver}-jacobi-zero_rhs" for solver in ("cg", "bicgstab")]
    breakdown = [f"{solver}-identity-breakdown" for solver in ("cg", "bicgstab", "cgs", "bicg")]
    return grid + single + ["bicgstab-jacobi-drm19"] + zero_rhs + breakdown


def _run(case: str):
    solver, prec, *rest = case.split("-")
    x0 = None
    if rest[0] == "single":
        matrix = three_point_stencil(24, 16, seed=3).astype(np.float32)
        b = stencil_rhs(24, 16, seed=4).astype(np.float32)
    elif rest[0] == "drm19":
        matrix = pele_batch("drm19", 56)
        b = pele_rhs(matrix)
    elif rest[0] == "zero_rhs":
        matrix = three_point_stencil(24, 4, seed=3)
        b = stencil_rhs(24, 4, seed=4)
        b[1] = 0.0
    elif rest[0] == "breakdown":
        stencil = three_point_stencil(24, 3, seed=3)
        values = stencil.values.copy()
        values[1] = 0.0
        matrix = BatchCsr(stencil.row_ptrs, stencil.col_idxs, values)
        b = stencil_rhs(24, 3, seed=4)
    else:
        n, nb = int(rest[0][1:]), int(rest[1][1:])
        matrix = three_point_stencil(n, nb, seed=3)
        b = stencil_rhs(n, nb, seed=4)
        if rest[2] == "warm":
            x0 = 0.5 * np.random.default_rng(5).standard_normal((nb, n))
    return dispatch_solve(
        matrix, b, x0=x0, solver=solver, preconditioner=prec,
        tolerance=1e-8, max_iterations=MAX_ITERATIONS,
    )


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _digests(result) -> tuple[str, str, str]:
    arrays = (result.x, result.iterations, result.residual_norms, result.converged,
              result.logger.frozen)
    curves = result.logger.residual_curves()
    ledger = result.ledger
    return (
        _sha(*(np.ascontiguousarray(a).tobytes() for a in arrays)),
        _sha(np.concatenate(curves).tobytes(),
             np.array([c.size for c in curves], dtype=np.int64).tobytes()),
        _sha(repr((ledger.flops, sorted(ledger.bytes_by_object.items()),
                   sorted(ledger.calls.items()))).encode()),
    )


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_core_answers_match_pinned_digests(case):
    assert _digests(_run(case)) == PINS[case]


def test_breakdown_case_freezes_its_zero_system():
    result = _run("cg-identity-breakdown")
    assert result.logger.frozen.tolist() == [False, True, False]
    assert result.converged.tolist() == [True, False, True]
